//! Golden bit-identity fixture for the sequential driver.
//!
//! Every word `run_sequential` reports per level — the correction mean
//! and variance of each QOI component, the acceptance rate, the IACT,
//! `N_l` and the evaluation count — goes through one FNV-1a per run, on
//! three hierarchies × seeds 7 and 11 × both pairing modes:
//!
//! * the tight ridge of the ledger suites (two levels, `ρ = 2`);
//! * a three-level two-dimensional Gaussian like `parallel_vs_sequential`'s
//!   (`ρ = 20, 12`);
//! * the benchmark's Poisson hierarchy `m = 113`, `n = 16 / 32 / 64`,
//!   `ρ = 10, 4`, whose two finer levels are MG-CG solves that warm-start
//!   from their previous solution — so its digests also pin which model
//!   instance evaluates which point, in which order.
//!
//! The constants were recorded before the serving stack became a flat
//! `ChainStack`; no old code path is kept to compare against. Since a
//! serve runs its pairing leg only where the mate is read (the top
//! chain's own steps under `Ledger`), the `Proposal` digests and the
//! three-level `Ledger` digests are re-recorded:
//! * two-level `Proposal` (ridge): every word but the level-0 evaluation
//!   count is the code before's, and that count is the one-leg closed
//!   form (1 907 → 1 273 at seed 7, 1 905 → 1 273 at seed 11);
//! * three-level `Ledger`: every word but the level-0 evaluation count is
//!   the code before's (the nested level-0 serves only lost their
//!   pairing legs, which draw from their own substreams);
//! * three-level `Proposal`: the level-1 serves lost their pairing legs
//!   and with them the nested level-0 serves those legs made, so the
//!   level-0 sessions sit at other stream positions and the values move;
//! * the two-level `Ledger` digests (ridge) did not move.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uq_fem::problem::constants::TRUTH_SEED;
use uq_fem::problem::PoissonFactory;
use uq_fem::PoissonHierarchy;
use uq_linalg::prob::isotropic_gaussian_logpdf;
use uq_mcmc::{GaussianRandomWalk, Proposal, SamplingProblem};
use uq_mlmcmc::ledger::PairingMode;
use uq_mlmcmc::wire::fnv1a;
use uq_mlmcmc::{run_sequential, LevelFactory, MlmcmcConfig, MlmcmcReport};

#[path = "common/ridge.rs"]
mod ridge;
use ridge::Ridge;

/// Three levels of a two-dimensional Gaussian, coarse to fine.
struct Gaussian3;

struct Target {
    mean: [f64; 2],
    sd: f64,
}

impl SamplingProblem for Target {
    fn dim(&self) -> usize {
        2
    }
    fn log_density(&mut self, theta: &[f64]) -> f64 {
        isotropic_gaussian_logpdf(theta, &self.mean, self.sd)
    }
}

impl LevelFactory for Gaussian3 {
    fn n_levels(&self) -> usize {
        3
    }
    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(Target {
            mean: [[0.5, -0.4], [0.9, -0.9], [1.0, -1.0]][level],
            sd: [0.7, 0.55, 0.5][level],
        })
    }
    fn proposal(&self, _level: usize) -> Box<dyn Proposal> {
        Box::new(GaussianRandomWalk::new(0.7))
    }
    fn subsampling_rate(&self, level: usize) -> usize {
        [20, 12, 0][level]
    }
    fn starting_point(&self, _level: usize) -> Vec<f64> {
        vec![0.0, 0.0]
    }
}

/// FNV-1a over every reported word of every level (wall-clock columns
/// excluded).
fn digest(report: &MlmcmcReport) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for level in &report.levels {
        words.extend(level.mean_correction.iter().map(|x| x.to_bits()));
        words.extend(level.var_correction.iter().map(|x| x.to_bits()));
        words.push(level.acceptance_rate.to_bits());
        words.push(level.iact.to_bits());
        words.push(level.n_samples as u64);
        words.push(level.evaluations as u64);
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a(&bytes)
}

fn poisson() -> PoissonFactory {
    let hierarchy = PoissonHierarchy::new(113, vec![16, 32, 64], TRUTH_SEED);
    PoissonFactory::new(hierarchy, vec![10, 4])
}

fn gaussian_config() -> MlmcmcConfig {
    MlmcmcConfig::new(vec![1_500, 300, 120]).with_burn_in(vec![100, 40, 20])
}

/// `(seed, Proposal digest, Ledger digest)` per seed.
type Digests = [(u64, u64, u64); 2];

fn check(name: &str, factory: &dyn LevelFactory, config: MlmcmcConfig, golden: Digests) {
    for (seed, proposal, ledger) in golden {
        for (pairing, expected) in [
            (PairingMode::Proposal, proposal),
            (PairingMode::Ledger, ledger),
        ] {
            let config = config.clone().with_pairing(pairing);
            let report = run_sequential(factory, &config, &mut StdRng::seed_from_u64(seed));
            assert_eq!(
                digest(&report),
                expected,
                "{name}, seed {seed}, {pairing:?}: got {:#018x}",
                digest(&report)
            );
        }
    }
}

#[test]
fn ridge_reports_are_bit_identical() {
    let config = MlmcmcConfig::new(vec![600, 300]).with_burn_in(vec![30, 20]);
    check(
        "ridge",
        &Ridge,
        config,
        [
            (7, 0x405a0171a05638a8, 0xcd3b4c25295bd4f4),
            (11, 0x96014ab97fbd7f4a, 0x6d3bbcea2855ed3b),
        ],
    );
}

#[test]
fn three_level_gaussian_reports_are_bit_identical() {
    check(
        "gaussian",
        &Gaussian3,
        gaussian_config(),
        [
            (7, 0x0dc0cc503f0f58ab, 0xfa7c96801217be99),
            (11, 0xd40140b358e5bb06, 0x6a63e863f8a91ab4),
        ],
    );
}

#[test]
fn warm_started_poisson_reports_are_bit_identical() {
    let config = MlmcmcConfig::new(vec![100, 20, 4]).with_burn_in(vec![10, 4, 2]);
    check(
        "poisson",
        &poisson(),
        config,
        [
            (7, 0xf1e13443b9cd00ba, 0x94333a50323a0233),
            (11, 0x3558ef59a581f25b, 0xbb96642d79a72d16),
        ],
    );
}
