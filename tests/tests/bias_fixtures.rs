//! **Bias-regression fixtures**, promoted from `#[ignore]`d
//! documentation tests into an explicitly-run CI step (PR 5): the
//! `O(contraction^ρ)` proposal-pairing biases the rewind ledger removes
//! are part of the repo's documented trade-off (DESIGN.md §5), so a
//! change that silently *shifts* them — not just one that removes them —
//! must fail CI rather than drift.
//!
//! Each fixture therefore asserts a **tolerance band** around the
//! measured bias, not merely its presence: the lower edge still proves
//! the legacy pairing is biased (the ledger pairing on identical seeds
//! is not — see `ledger_exactness.rs`), the upper edge pins its
//! documented magnitude. Measured on the tight-ridge hierarchy at
//! `ρ = 2` over four seeds: served-proposal marginal mean 0.215–0.222
//! (coarse target 0.0), proposal-paired parallel correction 0.131–0.134
//! (truth 0.35).

use rand::rngs::StdRng;
use rand::SeedableRng;
use uq_mlmcmc::coupled::ChainStack;
use uq_mlmcmc::ledger::PairingMode;
use uq_parallel::{run_parallel, ParallelConfig, Tracer};

#[path = "common/ridge.rs"]
mod ridge;
use ridge::{Ridge, COARSE_MEAN, FINE_MEAN, RHO};

/// The served PROPOSAL stream (what the estimator paired against before
/// the ledger) has marginal `π_1 K_0^ρ`, dragged from the coarse target
/// toward the fine posterior. The pull must stay inside its documented
/// band: gone ⇒ the legacy pairing became unbiased and DESIGN.md §5
/// needs a rewrite; grown ⇒ the coarse kernel's contraction regressed.
#[test]
fn proposal_stream_served_marginal_bias_stays_in_band() {
    let mut chain = ChainStack::new(&Ridge, 1);
    let mut rng = StdRng::seed_from_u64(41);
    let mut proposal = Vec::new();
    for i in 0..62_000 {
        chain.step(&mut rng);
        if i >= 2_000 {
            proposal.push(chain.top().last_coarse().expect("coupled").theta[0]);
        }
    }
    let bias = uq_mcmc::stats::mean(&proposal) - COARSE_MEAN;
    assert!(
        (0.17..=0.27).contains(&bias),
        "served-proposal marginal bias {bias:.4} left its documented band [0.17, 0.27] \
         (measured 0.215–0.222 across seeds at ρ = {RHO}; the pairing track on identical \
         seeds is unbiased — ledger_exactness.rs)"
    );
}

/// Pairing the parallel correction against the proposal stream
/// re-introduces the `O(contraction^ρ)` correction-mean bias — the
/// reason both parallel backends default to `PairingMode::Ledger`. The
/// measured shortfall must stay in its band.
#[test]
fn parallel_proposal_pairing_correction_bias_stays_in_band() {
    let truth = FINE_MEAN - COARSE_MEAN;
    let mut pconfig = ParallelConfig::new(vec![30_000, 15_000], vec![1, 1]);
    pconfig.burn_in = vec![1_000, 500];
    pconfig.pairing = PairingMode::Proposal;
    let par = run_parallel(&Ridge, &pconfig, &Tracer::disabled());
    let corr = par.levels[1].mean_correction[0];
    let bias = truth - corr;
    assert!(
        (0.16..=0.27).contains(&bias),
        "proposal-pairing correction bias {bias:.4} (correction {corr:.4} vs truth {truth}) \
         left its documented band [0.16, 0.27] (measured ≈ 0.218 across seeds at ρ = {RHO}; \
         the default ledger pairing is unbiased — ledger_exactness.rs)"
    );
}
