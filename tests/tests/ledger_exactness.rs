//! Statistical exactness harness for the per-requester rewind ledger
//! (PR 4): the served-marginal test the pre-ledger pairing fails, the
//! fine-marginal exactness the rewind preserves, the unbiased ledger
//! pairing on all three backends, and bit-for-bit parity between the
//! sequential ledger session and the single-worker cooperative runtime.
//! The legacy proposal-pairing biases this suite used to carry as
//! `#[ignore]`d fixtures now live in `bias_fixtures.rs` with tolerance
//! bands, run as their own CI step.
//!
//! The fixture is a **tight-ridge** two-level Gaussian hierarchy: the
//! fine posterior `N(0.35, 0.12²)` sits 2.3 coarse standard deviations
//! from the coarse posterior `N(0, 0.15²)` with a small subsampling rate
//! `ρ = 2`, so the `O(contraction^ρ)` effects the ledger removes are
//! large enough to detect with modest sample counts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uq_mlmcmc::coupled::ChainStack;
use uq_mlmcmc::ledger::{session_seed, PairingMode};
use uq_mlmcmc::{run_sequential, MlmcmcConfig};
use uq_parallel::scheduler::controller_seed;
use uq_parallel::{run_parallel, run_runtime, ParallelConfig, RuntimeConfig, Tracer};

fn stats_mean(v: &[f64]) -> f64 {
    uq_mcmc::stats::mean(v)
}

fn stats_sd(v: &[f64]) -> f64 {
    uq_mcmc::stats::variance(v).sqrt()
}

#[path = "common/ridge.rs"]
mod ridge;
use ridge::{Ridge, COARSE_MEAN, COARSE_SD, FINE_MEAN};

/// A coupled ridge chain with the sequential ledger session.
fn ridge_chain() -> ChainStack {
    ChainStack::new(&Ridge, 1)
}

/// Run `n` steps and collect (fine state, proposal mate, ledger mate).
fn run_streams(n: usize, burn: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut chain = ridge_chain();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut fine, mut proposal, mut pairing) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..n + burn {
        chain.step(&mut rng);
        if i >= burn {
            let chain = chain.top();
            fine.push(chain.state().theta[0]);
            proposal.push(chain.last_coarse().expect("coupled").theta[0]);
            pairing.push(chain.last_pairing().expect("coupled").theta[0]);
        }
    }
    (fine, proposal, pairing)
}

#[test]
fn ledger_pairing_stream_matches_coarse_marginal() {
    // the served-marginal test: the ledger's pairing track is an
    // autonomous K^ρ subchain, so its marginal must be the COARSE
    // posterior N(0, 0.15²) even though every proposal is generated from
    // fine-chain anchors concentrated 2.3σ away
    let (fine, _, pairing) = run_streams(60_000, 2_000, 41);
    let pairing_mean = stats_mean(&pairing);
    let pairing_sd = stats_sd(&pairing);
    assert!(
        (pairing_mean - COARSE_MEAN).abs() < 0.02,
        "pairing-track mean {pairing_mean} must match the coarse target {COARSE_MEAN}"
    );
    assert!(
        (pairing_sd - COARSE_SD).abs() < 0.02,
        "pairing-track sd {pairing_sd} must match the coarse target {COARSE_SD}"
    );
    // and the exactness rewind keeps the fine marginal exact
    let fine_mean = stats_mean(&fine);
    assert!(
        (fine_mean - FINE_MEAN).abs() < 0.02,
        "fine-chain mean {fine_mean} must stay exact at {FINE_MEAN}"
    );
}

#[test]
fn ledger_correction_unbiased_on_all_three_backends() {
    // E[Q_1 - Q_0] on the ridge is 0.35 - 0.0; with proposal pairing the
    // measured correction collapses toward ~0.35·contraction² instead.
    // All three backends must agree with the truth under ledger pairing.
    let truth = FINE_MEAN - COARSE_MEAN;

    let config = MlmcmcConfig::new(vec![40_000, 20_000])
        .with_burn_in(vec![2_000, 1_000])
        .with_pairing(PairingMode::Ledger);
    let mut rng = StdRng::seed_from_u64(9);
    let seq = run_sequential(&Ridge, &config, &mut rng);
    let seq_corr = seq.levels[1].mean_correction[0];
    assert!(
        (seq_corr - truth).abs() < 0.03,
        "sequential ledger correction {seq_corr} vs truth {truth}"
    );

    let mut pconfig = ParallelConfig::new(vec![30_000, 15_000], vec![1, 1]);
    pconfig.burn_in = vec![1_000, 500];
    assert_eq!(pconfig.pairing, PairingMode::Ledger, "parallel default");
    let par = run_parallel(&Ridge, &pconfig, &Tracer::disabled());
    let par_corr = par.levels[1].mean_correction[0];
    assert!(
        (par_corr - truth).abs() < 0.03,
        "thread-scheduler ledger correction {par_corr} vs truth {truth}"
    );

    let mut rconfig = RuntimeConfig::new(vec![30_000, 15_000], vec![1, 1]);
    rconfig.base.burn_in = vec![1_000, 500];
    rconfig.n_workers = 2;
    let rt = run_runtime(&Ridge, &rconfig, &Tracer::disabled());
    let rt_corr = rt.report.levels[1].mean_correction[0];
    assert!(
        (rt_corr - truth).abs() < 0.03,
        "runtime ledger correction {rt_corr} vs truth {truth}"
    );
    // the runtime's ledger must have actually been exercised
    assert!(rt.phonebook.ledger.serves > 15_000);
    assert!(rt.phonebook.ledger.sessions >= 1);
}

#[test]
fn tight_ridge_coupled_chain_mixes_under_rewind_serving() {
    // the second ROADMAP defect: pre-ledger, the phonebook served
    // independent stationary coarse draws, an independence proposal whose
    // acceptance on this ridge is ~e^{-7} — the fine chain froze at its
    // starting point (0.0) and never reached the fine posterior (0.35).
    // With per-requester rewind serving the proposals walk from each
    // requester's own anchor and the chain must mix to the fine target.
    let mut rconfig = RuntimeConfig::new(vec![8_000, 12_000], vec![1, 1]);
    rconfig.base.burn_in = vec![500, 500];
    rconfig.base.record_samples = true;
    rconfig.n_workers = 2;
    let rt = run_runtime(&Ridge, &rconfig, &Tracer::disabled());
    let fine: Vec<f64> = rt.report.levels[1]
        .theta_samples
        .iter()
        .map(|t| t[0])
        .collect();
    let mean = stats_mean(&fine);
    let sd = stats_sd(&fine);
    assert!(
        (mean - FINE_MEAN).abs() < 0.03,
        "runtime fine marginal mean {mean} must reach {FINE_MEAN}"
    );
    assert!(sd > 0.05, "the chain must actually move (sd {sd})");

    let mut pconfig = ParallelConfig::new(vec![8_000, 12_000], vec![1, 1]);
    pconfig.burn_in = vec![500, 500];
    pconfig.record_samples = true;
    let par = run_parallel(&Ridge, &pconfig, &Tracer::disabled());
    let fine: Vec<f64> = par.levels[1].theta_samples.iter().map(|t| t[0]).collect();
    let mean = stats_mean(&fine);
    assert!(
        (mean - FINE_MEAN).abs() < 0.03,
        "thread-scheduler fine marginal mean {mean} must reach {FINE_MEAN}"
    );
}

#[test]
fn sequential_ledger_is_bit_identical_to_single_worker_runtime() {
    // the parity pin: a single-worker runtime run (deterministic
    // scheduling, LB off) must reproduce, bit for bit, a sequential
    // coupled chain driven with the runtime requester's RNG stream and
    // the same ledger session seed — serves are pure functions of the
    // lease, so the two backends walk identical trajectories.
    let seed = 1234u64;
    let n = 400usize;
    let burn = vec![30usize, 20];

    let mut rconfig = RuntimeConfig::new(vec![200, n], vec![1, 1]);
    rconfig.base.burn_in = burn.clone();
    rconfig.base.seed = seed;
    rconfig.base.load_balancing = false;
    rconfig.base.record_samples = true;
    rconfig.n_workers = 1;
    rconfig.collector_shards = 1;
    let rt = run_runtime(&Ridge, &rconfig, &Tracer::disabled());
    let runtime_theta: Vec<f64> = rt.report.levels[1]
        .theta_samples
        .iter()
        .map(|t| t[0])
        .collect();
    assert_eq!(runtime_theta.len(), n);

    // rank layout: root 0, phonebook 1, collectors 2..4, controllers 4
    // (level 0) and 5 (level 1) — the level-1 requester is rank 5
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
        "single-worker runtime and sequential ledger must agree bit-for-bit"
    );
}

#[test]
fn all_three_backends_agree_bit_for_bit() {
    // a single-worker pool run, a `run_parallel` run and a sequential
    // replay of the requester's session must walk identical level-1
    // trajectories. Rank layout of both parallel runs: root 0, phonebook
    // 1, collectors 2..4, controllers 4 (level 0) and 5 (level 1) — the
    // requester is rank 5.
    let seed = 4321u64;
    let n = 400usize;
    let burn = vec![30usize, 20];

    let mut rconfig = RuntimeConfig::new(vec![200, n], vec![1, 1]);
    rconfig.base.burn_in = burn.clone();
    rconfig.base.seed = seed;
    rconfig.base.load_balancing = false;
    rconfig.base.record_samples = true;
    rconfig.n_workers = 1;
    let rt = run_runtime(&Ridge, &rconfig, &Tracer::disabled());
    let level_1 = |levels: &[uq_parallel::scheduler::ParallelLevelReport]| -> Vec<f64> {
        levels[1].theta_samples.iter().map(|t| t[0]).collect()
    };
    let runtime_theta = level_1(&rt.report.levels);
    assert_eq!(runtime_theta.len(), n);

    let mut pconfig = ParallelConfig::new(vec![200, n], vec![1, 1]);
    pconfig.burn_in = burn.clone();
    pconfig.seed = seed;
    pconfig.load_balancing = false;
    pconfig.record_samples = true;
    let par = run_parallel(&Ridge, &pconfig, &Tracer::disabled());
    let thread_theta = level_1(&par.levels);

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
        "single-worker pool vs sequential ledger must agree bit-for-bit"
    );
    assert_eq!(
        thread_theta, seq_theta,
        "run_parallel vs sequential ledger must agree bit-for-bit"
    );
}
