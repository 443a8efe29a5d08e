//! Golden bit-identity fixture for the sequential driver.
//!
//! Every word `run_sequential` reports per level is pinned, on three
//! hierarchies × seeds 7 and 11 × both pairing modes, by two pins per
//! run: one FNV-1a over its values — the correction mean and variance of
//! each QOI component, the acceptance rate, the IACT and `N_l` — and its
//! evaluation counts per level as a literal array. The hierarchies:
//!
//! * the tight ridge of the ledger suites (two levels, `ρ = 2`);
//! * a three-level two-dimensional Gaussian like `parallel_vs_sequential`'s
//!   (`ρ = 20, 12`);
//! * the benchmark's Poisson hierarchy `m = 113`, `n = 16 / 32 / 64`,
//!   `ρ = 10, 4`. Levels 0 and 1 (`n = 16, 32`) are band solves, pure
//!   functions of θ; level 2 (`n = 64`) is an MG-CG solve that
//!   warm-starts from its previous solution — so its digests also pin
//!   which model instance evaluates which point, in which order. Level 1
//!   was a warm-started MG-CG level too until it moved to the band solve;
//!   its densities moved by MG-CG's tolerance, no MH decision flipped,
//!   and its QOIs (κ on the QOI grid) involve no solve, so these pins
//!   passed unedited across that switch.
//!
//! The combined digests were recorded before the serving stack became a
//! flat `ChainStack`, re-recorded where a serve stopped running its
//! pairing leg unless the mate is read, and split into the two pins
//! before a coupled step whose proposal did not move (every coarse step
//! of its serve rejected) stopped solving its fine model. That change
//! removes evaluations only:
//! * ridge and Gaussian: their models are pure functions of θ, so the
//!   skipped solve would have returned the density the chain holds, bit
//!   for bit; the value digests are the ones recorded before it, and only
//!   the coupled levels' counts fell (ridge level 1: 321 → 280 at seed 7,
//!   321 → 277 at seed 11);
//! * Poisson: an MG-CG level starts each solve from its previous
//!   solution, so a re-solve at the chain's own point agreed with the
//!   held density only to the solver's tolerance — the ratio was 1 up to
//!   that, and could draw. Taking the held density makes the ratio
//!   exactly 1 and draws nothing, and every later warm start begins
//!   elsewhere, so the trajectories move while the chain's law does not;
//!   its value digests and counts are re-recorded.
//!
//! The Poisson value digests were re-recorded once more when `log κ`
//! moved from the row sum over a tabulated basis to sum factorisation
//! (`uq_randfield::KlTensorGrid`): the same terms in another order, so
//! every density moved by at most 4.7e-14 relative and every QOI at
//! rounding level. No MH decision flipped: the evaluation counts passed
//! unedited and the acceptance rates kept their values, so the
//! trajectories are the same and only the means and variances moved.

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

/// FNV-1a over every reported value word of every level — everything
/// but the evaluation count and the wall-clock columns.
fn values_digest(report: &MlmcmcReport) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for level in &report.levels {
        words.extend(level.mean_correction.iter().map(|x| x.to_bits()));
        words.extend(level.var_correction.iter().map(|x| x.to_bits()));
        words.push(level.acceptance_rate.to_bits());
        words.push(level.iact.to_bits());
        words.push(level.n_samples as u64);
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

/// One run's two pins: the digest of its values and its evaluations per
/// level, coarse to fine.
type Pin = (u64, &'static [usize]);

/// `(seed, Proposal pin, Ledger pin)` per seed.
type Pins = [(u64, Pin, Pin); 2];

fn check(name: &str, factory: &dyn LevelFactory, config: MlmcmcConfig, golden: Pins) {
    for (seed, proposal, ledger) in golden {
        for (pairing, (values, evaluations)) in [
            (PairingMode::Proposal, proposal),
            (PairingMode::Ledger, ledger),
        ] {
            let config = config.clone().with_pairing(pairing);
            let report = run_sequential(factory, &config, &mut StdRng::seed_from_u64(seed));
            let counted: Vec<usize> = report.levels.iter().map(|l| l.evaluations).collect();
            let at = format!("{name}, seed {seed}, {pairing:?}");
            assert_eq!(
                values_digest(&report),
                values,
                "{at}: values digest {:#018x}",
                values_digest(&report)
            );
            assert_eq!(counted, evaluations, "{at}: evaluations per level");
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
            (
                7,
                (0x8dd6b70b6f35456b, &[1273, 280]),
                (0xcbea0dfc2f89ac64, &[1907, 280]),
            ),
            (
                11,
                (0xf2b7929525cefc75, &[1273, 277]),
                (0xf4c8721219d13a95, &[1905, 277]),
            ),
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
            (
                7,
                (0xa7acbe0a3da1ff3a, &[42006, 2023, 141]),
                (0x0fc413a9a6c6751d, &[81166, 3643, 140]),
            ),
            (
                11,
                (0x7209ec03ad69886b, &[42006, 2023, 138]),
                (0xa2428b40bf593fbb, &[80946, 3631, 138]),
            ),
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
            (
                7,
                (0xdec90f340a5f002a, &[596, 50, 5]),
                (0x261afa652569003f, &[826, 50, 5]),
            ),
            (
                11,
                (0x32e970519fff06c7, &[596, 41, 4]),
                (0x08af45a5ad8391cf, &[826, 41, 4]),
            ),
        ],
    );
}
