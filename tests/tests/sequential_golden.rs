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
//! A mid-term level-2 snapshot of the checkpointed driver (its chain
//! state nests the serving stack two deep) is pinned by its content
//! hash, and resuming from it must reproduce the uninterrupted run.
//!
//! The constants were recorded before the serving stack became a flat
//! `ChainStack`; no old code path is kept to compare against.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use uq_fem::problem::constants::TRUTH_SEED;
use uq_fem::problem::PoissonFactory;
use uq_fem::PoissonHierarchy;
use uq_linalg::prob::isotropic_gaussian_logpdf;
use uq_mcmc::{GaussianRandomWalk, Proposal, SamplingProblem};
use uq_mlmcmc::estimator::{run_sequential_ckpt, CheckpointSpec};
use uq_mlmcmc::ledger::PairingMode;
use uq_mlmcmc::wire::fnv1a;
use uq_mlmcmc::{run_sequential, LevelFactory, MlmcmcConfig, MlmcmcReport, RunStore};

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
            (7, 0x4050cd88a25a4b0b, 0xcd3b4c25295bd4f4),
            (11, 0xfff9c60975649f1b, 0x6d3bbcea2855ed3b),
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
            (7, 0xe50f33e798ba0862, 0x8a28fc40ce40a20f),
            (11, 0x639ef597409eef87, 0xc9325e265a1fdafb),
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
            (7, 0x7abc4b78c9f912c4, 0x6ea939de8f10d48c),
            (11, 0x577dff360c92cb26, 0x4257e1b23fdd44d5),
        ],
    );
}

/// Content hash of the one snapshot cut at 1 850 recorded samples: 50
/// into the level-2 term of [`gaussian_config`] at seed 7. Re-recorded at
/// format 3: the payload is format 2's byte for byte (a sequential cut
/// holds no ledger), and with its version word set back to 2 and its
/// check redone the file hashes to format 2's `86a47b3b9cc1d040`.
const MID_LEVEL_2_SNAPSHOT: &str = "4caed996abf1eba2";

#[test]
fn a_mid_term_level_2_snapshot_is_bit_identical_and_resumes_exactly() {
    let config = gaussian_config().with_pairing(PairingMode::Ledger);
    let seed = 7;
    let uninterrupted = run_sequential_ckpt(&Gaussian3, &config, seed, None, None);

    let dir = std::env::temp_dir().join(format!("uq-seq-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = RunStore::open(&dir).expect("a run store");
    let hashes = RefCell::new(Vec::new());
    let record = |_: usize, hash: &str| hashes.borrow_mut().push(hash.to_string());
    let spec = CheckpointSpec {
        store: &store,
        config_hash: 0x5E0_601D,
        every: 1_850,
        on_snapshot: Some(&record),
    };
    let checkpointed = run_sequential_ckpt(&Gaussian3, &config, seed, Some(&spec), None);
    assert_eq!(digest(&checkpointed), digest(&uninterrupted));
    let hashes = hashes.into_inner();
    assert_eq!(hashes, [MID_LEVEL_2_SNAPSHOT]);

    let (snapshot, _) = store.get_snapshot(&hashes[0]).expect("the snapshot");
    let cursor = snapshot.sequential.as_ref().expect("a sequential cursor");
    assert_eq!((cursor.level, cursor.term.samples_done), (2, 50));
    let stack = (cursor.chains.len(), cursor.cursors.len());
    assert_eq!(stack, (3, 2), "levels 0..=2 and the two servers' cursors");
    let resumed = run_sequential_ckpt(&Gaussian3, &config, seed, None, Some(&snapshot));
    assert_eq!(digest(&resumed), digest(&uninterrupted));
    let _ = std::fs::remove_dir_all(&dir);
}
