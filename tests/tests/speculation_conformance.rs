//! Cross-backend conformance suite for **speculative ledger serves**
//! (PR 5): a speculation committed on an anchor match must be
//! bit-identical to the real serve it replaces, and a discarded
//! speculation must leave no statistical trace.
//!
//! The regime where full-run bit-parity is provable — and asserted here —
//! is one chain per level with a level-0 serving stack on a
//! deterministic schedule (single-worker runtime; thread scheduler with
//! a single producer per collector): there a serve is a pure function of
//! its lease, so the answer a requester receives cannot depend on
//! whether it was precomputed. Deeper serving stacks and multi-worker
//! schedules reorder *which* session substream positions feed nested
//! serves, so for those the suite asserts the statistical invariant
//! instead: on the tight-ridge hierarchy the correction mean stays
//! exactly `FINE − COARSE` while hits and misses are both exercised.
//!
//! Fixture: the same tight-ridge two-level Gaussian hierarchy as
//! `ledger_exactness.rs` (fine `N(0.35, 0.12²)` 2.3 coarse standard
//! deviations from coarse `N(0, 0.15²)`, `ρ = 2`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use uq_mlmcmc::coupled::ChainStack;
use uq_mlmcmc::ledger::session_seed;
use uq_parallel::scheduler::controller_seed;
use uq_parallel::{run_parallel, run_runtime, ParallelConfig, RuntimeConfig, Tracer};

#[path = "common/ridge.rs"]
mod ridge;
use ridge::{Ridge, COARSE_MEAN, FINE_MEAN};

/// Deterministic single-worker runtime config on the ridge: one chain
/// per level, load balancing off, per-sample recording on.
fn runtime_config(n0: usize, n1: usize, seed: u64, speculation: bool) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(vec![n0, n1], vec![1, 1]);
    config.base.burn_in = vec![30, 20];
    config.base.seed = seed;
    config.base.load_balancing = false;
    config.base.record_samples = true;
    config.base.speculation = speculation;
    config.n_workers = 1;
    config.collector_shards = 1;
    config
}

fn level_theta(levels: &[uq_parallel::scheduler::ParallelLevelReport], level: usize) -> Vec<f64> {
    levels[level].theta_samples.iter().map(|t| t[0]).collect()
}

#[test]
fn runtime_speculation_on_off_is_bit_identical() {
    // single worker + single producer per level: the schedule is
    // deterministic and serves are pure functions of their lease, so
    // turning speculation on must not move one bit of either level's
    // recorded stream — while actually committing speculations
    let on = run_runtime(
        &Ridge,
        &runtime_config(300, 500, 21, true),
        &Tracer::disabled(),
    );
    let off = run_runtime(
        &Ridge,
        &runtime_config(300, 500, 21, false),
        &Tracer::disabled(),
    );
    assert_eq!(
        level_theta(&on.report.levels, 0),
        level_theta(&off.report.levels, 0),
        "level-0 stream must be bit-identical"
    );
    assert_eq!(
        level_theta(&on.report.levels, 1),
        level_theta(&off.report.levels, 1),
        "level-1 stream must be bit-identical"
    );
    assert_eq!(
        on.report.levels[1].mean_correction,
        off.report.levels[1].mean_correction
    );
    // the equality must be non-vacuous: speculations were committed on
    // one side and impossible on the other
    assert!(
        on.phonebook.ledger.spec_hits > 0,
        "speculative path not exercised: {:?}",
        on.phonebook.ledger
    );
    assert_eq!(off.phonebook.ledger.spec_launched, 0);
    assert_eq!(off.phonebook.ledger.spec_hits, 0);
}

#[test]
fn thread_scheduler_speculation_on_off_is_bit_identical() {
    // the thread scheduler's interleaving is OS-dependent, but with one
    // chain per level every recorded stream is schedule-independent:
    // the requester's serves are pure functions of its session stream
    // and the level-0 producer's own trajectory never depends on when
    // serves interleave (snapshot → serve → restore is exact). The
    // speculation switch must therefore not move a bit here either.
    let mk = |speculation: bool| {
        let mut config = ParallelConfig::new(vec![2_000, 3_000], vec![1, 1]);
        config.burn_in = vec![100, 60];
        config.seed = 33;
        config.load_balancing = false;
        config.record_samples = true;
        config.speculation = speculation;
        run_parallel(&Ridge, &config, &Tracer::disabled())
    };
    let on = mk(true);
    let off = mk(false);
    for level in 0..2 {
        assert_eq!(
            level_theta(&on.levels, level),
            level_theta(&off.levels, level),
            "level-{level} stream must be bit-identical across the speculation switch"
        );
        assert_eq!(
            on.levels[level].mean_correction,
            off.levels[level].mean_correction
        );
    }
}

#[test]
fn all_three_backends_agree_bit_for_bit_with_speculation_on() {
    // the PR-4 parity pin extended to the speculative pipeline: with
    // speculation enabled (the default), a single-worker runtime run, a
    // thread-scheduler run and a sequential replay of the requester's
    // session must walk identical level-1 trajectories. Rank layout of
    // both parallel backends: root 0, phonebook 1, collectors 2..4,
    // controllers 4 (level 0) and 5 (level 1) — the requester is rank 5.
    let seed = 4321u64;
    let n = 400usize;
    let burn = vec![30usize, 20];

    let mut rconfig = runtime_config(200, n, seed, true);
    rconfig.base.burn_in = burn.clone();
    let rt = run_runtime(&Ridge, &rconfig, &Tracer::disabled());
    let runtime_theta = level_theta(&rt.report.levels, 1);
    assert_eq!(runtime_theta.len(), n);
    assert!(rt.phonebook.ledger.spec_launched > 0);

    let mut pconfig = ParallelConfig::new(vec![200, n], vec![1, 1]);
    pconfig.burn_in = burn.clone();
    pconfig.seed = seed;
    pconfig.load_balancing = false;
    pconfig.record_samples = true;
    let par = run_parallel(&Ridge, &pconfig, &Tracer::disabled());
    let thread_theta = level_theta(&par.levels, 1);

    // sequential replay: the requester rank's RNG stream driving a
    // coupled chain whose level-0 cursor pins the same ledger session
    let requester_rank = 5usize;
    let mut fine = ChainStack::new(&Ridge, 1);
    fine.cursor(0).session_seed = Some(session_seed(seed, 0, requester_rank as u64));
    let mut rng = StdRng::seed_from_u64(controller_seed(seed, requester_rank));
    let mut seq_theta = Vec::with_capacity(n);
    for i in 0..burn[1] + n {
        fine.step(&mut rng);
        if i >= burn[1] {
            seq_theta.push(fine.top().state().theta[0]);
        }
    }

    assert_eq!(
        runtime_theta, seq_theta,
        "runtime (speculating) vs sequential ledger must agree bit-for-bit"
    );
    assert_eq!(
        thread_theta, seq_theta,
        "thread scheduler (speculating) vs sequential ledger must agree bit-for-bit"
    );
}

#[test]
fn speculation_hits_and_misses_leave_the_served_marginal_exact() {
    // statistical invariance on the tight ridge, in the regime where
    // bit-parity is NOT provable (4 workers, racing speculations): the
    // correction mean under the ledger pairing equals FINE − COARSE only
    // if the served pairing stream still has marginal exactly π_0, no
    // matter how many speculations were committed or discarded. The
    // config must actually exercise both paths.
    let truth = FINE_MEAN - COARSE_MEAN;
    let mut config = RuntimeConfig::new(vec![30_000, 15_000], vec![1, 1]);
    config.base.burn_in = vec![1_000, 500];
    config.n_workers = 4;
    let rt = run_runtime(&Ridge, &config, &Tracer::disabled());
    let corr = rt.report.levels[1].mean_correction[0];
    assert!(
        (corr - truth).abs() < 0.03,
        "correction mean {corr} drifted from {truth} under racing speculation"
    );
    let ledger = rt.phonebook.ledger;
    assert!(ledger.spec_hits > 0, "hits must be exercised: {ledger:?}");
    assert!(
        ledger.spec_misses > 0,
        "misses must be exercised: {ledger:?}"
    );
    assert!(ledger.serves > 15_000);
    // accounting sanity: every commit was a launched speculation, and
    // hit fraction + diverged fraction stay inside [0, 1]
    assert!(ledger.spec_hits <= ledger.spec_launched);
    assert!((0.0..=1.0).contains(&ledger.hit_rate()));
    assert!((0.0..=1.0).contains(&ledger.diverged_fraction()));
}
