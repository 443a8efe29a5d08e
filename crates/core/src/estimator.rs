//! The multilevel telescoping estimator (paper eq. 2) and the sequential
//! MLMCMC driver.
//!
//! `E[Q_L] ≈ E[Q_0] + Σ_{l=1}^{L} E[Q_l - Q_{l-1}]`: the level-0 term is
//! estimated by a conventional chain, each correction term by a coupled
//! chain served by the chains below it (a [`ChainStack`]).
//! The driver records everything the paper tabulates: per-level means,
//! correction variances, integrated autocorrelation times, acceptance
//! rates, evaluation counts and mean evaluation cost. It keeps no
//! checkpoint: a checkpointed, bit-exact one-thread run is a
//! `uq_parallel::Run` of one chain per level on a one-worker pool, whose
//! consistent cut is the one snapshot kind of [`crate::store`].
//!
//! **Estimator pairing.** Each correction sample is
//! `Q_l(θ_l) − Q_{l-1}(ψ)`; which stream supplies `ψ` is selected by
//! [`PairingMode`]. Under the default [`PairingMode::Proposal`], `ψ` is
//! the served proposal ([`MlChain::last_coarse`](crate::MlChain::last_coarse)) —
//! tightly coupled to the fine state (small correction variance) but
//! with marginal `π_l K_{l-1}^ρ` rather than `π_{l-1}`, an
//! `O(contraction^ρ)` bias that vanishes as the subsampling rate `ρ`
//! grows. Under [`PairingMode::Ledger`], `ψ` is the rewind ledger's pairing
//! mate ([`MlChain::last_pairing`](crate::MlChain::last_pairing)): the
//! requester's autonomous coarse subchain, marginal exactly `π_{l-1}` —
//! unbiased for every `ρ`, coupled more loosely once the tracks diverge. The
//! coarse *anchor* cannot be used either way because an accepted fine
//! state equals its anchor whenever the levels share a parameter space,
//! degenerating the correction to zero. Only the top chain's own steps
//! under [`PairingMode::Ledger`] ask for the mate, so every other serve
//! runs one `ρ`-step leg. See DESIGN.md §5 for the full discussion and
//! measured trade-off.

use crate::counting::{EvalCounter, Hooked};
use crate::coupled::ChainStack;
use crate::factory::LevelFactory;
use crate::ledger::PairingMode;
use rand::Rng;
use std::sync::Arc;
use uq_mcmc::stats::{integrated_autocorrelation_time, VectorMoments};

/// Configuration of a sequential MLMCMC run.
#[derive(Clone, Debug)]
pub struct MlmcmcConfig {
    /// Samples per level (`N_l`), coarsest first. Length = number of
    /// levels to use (may be shorter than the factory's hierarchy).
    pub samples_per_level: Vec<usize>,
    /// Burn-in steps per level chain.
    pub burn_in: Vec<usize>,
    /// QOI component used for the IACT / variance columns of the report
    /// (the paper's "single representative component").
    pub representative_component: usize,
    /// Retain per-sample traces (parameters, QOIs and coarse/fine
    /// correction pairs) for figure generation. Off by default — the
    /// moments are accumulated streaming either way.
    pub record_samples: bool,
    /// Which coarse stream the correction moments pair against (the
    /// recorded `correction_pairs` always show the proposal coupling —
    /// they feed the Fig. 14-style coupling plots).
    pub pairing: PairingMode,
}

impl MlmcmcConfig {
    pub fn new(samples_per_level: Vec<usize>) -> Self {
        let n = samples_per_level.len();
        Self {
            samples_per_level,
            burn_in: vec![0; n],
            representative_component: 0,
            record_samples: false,
            pairing: PairingMode::default(),
        }
    }

    pub fn with_burn_in(mut self, burn_in: Vec<usize>) -> Self {
        assert_eq!(burn_in.len(), self.samples_per_level.len());
        self.burn_in = burn_in;
        self
    }

    pub fn recording(mut self) -> Self {
        self.record_samples = true;
        self
    }

    /// Pair correction moments with the ledger's unbiased mate stream.
    pub fn with_pairing(mut self, pairing: PairingMode) -> Self {
        self.pairing = pairing;
        self
    }
}

/// Per-level results: the rows of the paper's Tables 3 and 4.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelReport {
    pub level: usize,
    /// Recorded samples `N_l`.
    pub n_samples: usize,
    /// Acceptance rate of the level-`l` chain.
    pub acceptance_rate: f64,
    /// `E[Q_0]` (level 0) or `E[Q_l - Q_{l-1}]` (corrections), per
    /// QOI component.
    pub mean_correction: Vec<f64>,
    /// `V[Q_0]` or `V[Q_l - Q_{l-1}]`, per QOI component.
    pub var_correction: Vec<f64>,
    /// IACT `τ_l` of the representative QOI component of the level-`l`
    /// chain trace.
    pub iact: f64,
    /// Model evaluations on this level accumulated across the whole run
    /// (all telescoping terms).
    pub evaluations: usize,
    /// Mean cost per evaluation in milliseconds (`t_l`).
    pub mean_eval_ms: f64,
    /// Retained parameter samples (empty unless `record_samples`).
    pub theta_samples: Vec<Vec<f64>>,
    /// Retained QOI samples (empty unless `record_samples`).
    pub qoi_samples: Vec<Vec<f64>>,
    /// Retained (coarse QOI, fine QOI) correction pairs — Fig. 14's
    /// arrows (empty for level 0 or unless `record_samples`).
    pub correction_pairs: Vec<(Vec<f64>, Vec<f64>)>,
}

/// Results of a full multilevel run.
#[derive(Clone, Debug)]
pub struct MlmcmcReport {
    pub levels: Vec<LevelReport>,
}

impl MlmcmcReport {
    /// The telescoping-sum estimate `E[Q_0] + Σ E[Q_l - Q_{l-1}]`.
    pub fn expectation(&self) -> Vec<f64> {
        let dim = self.levels[0].mean_correction.len();
        let mut total = vec![0.0; dim];
        for lvl in &self.levels {
            for (t, m) in total.iter_mut().zip(&lvl.mean_correction) {
                *t += m;
            }
        }
        total
    }

    /// Partial sums `E[Q_0] + Σ_{k≤l} E[Q_k - Q_{k-1}]` per level —
    /// the last column of the paper's Table 4.
    pub fn partial_sums(&self) -> Vec<Vec<f64>> {
        let dim = self.levels[0].mean_correction.len();
        let mut acc = vec![0.0; dim];
        self.levels
            .iter()
            .map(|lvl| {
                for (a, m) in acc.iter_mut().zip(&lvl.mean_correction) {
                    *a += m;
                }
                acc.clone()
            })
            .collect()
    }

    /// Total model evaluations across all levels.
    pub fn total_evaluations(&self) -> usize {
        self.levels.iter().map(|l| l.evaluations).sum()
    }
}

/// Sequential multilevel MCMC (paper Algorithm 2 driven level by level).
///
/// Runs a conventional chain on level 0 and one coupled chain per
/// correction term, each on top of its own [`ChainStack`], and assembles
/// the telescoping report.
pub fn run_sequential(
    factory: &dyn LevelFactory,
    config: &MlmcmcConfig,
    rng: &mut dyn Rng,
) -> MlmcmcReport {
    let n_levels = config.samples_per_level.len();
    assert!(n_levels >= 1, "run_sequential: need at least one level");
    assert!(
        n_levels <= factory.n_levels(),
        "run_sequential: more levels requested than the factory provides"
    );
    let fresh = (0..factory.n_levels()).map(|_| EvalCounter::new());
    let counting = Hooked::new(factory, fresh.collect::<Vec<_>>());
    let counters = counting.hook();

    let mut levels: Vec<LevelReport> = Vec::with_capacity(n_levels);
    for level in 0..n_levels {
        let mut stack = ChainStack::new(&counting, level).with_pairing(config.pairing);
        for _ in 0..config.burn_in[level] {
            stack.step(rng);
        }
        let n_samples = config.samples_per_level[level];
        let qoi_dim = stack.top().current_qoi().len();
        let rep = config
            .representative_component
            .min(qoi_dim.saturating_sub(1));
        let mut moments = VectorMoments::new(qoi_dim);
        // the representative component's trace feeds the IACT column
        let mut rep_trace = Vec::with_capacity(n_samples);
        let mut theta_samples = Vec::new();
        let mut qoi_samples = Vec::new();
        let mut correction_pairs = Vec::new();
        for _ in 0..n_samples {
            stack.step(rng);
            let (chain, mut coarse) = stack.top_and_coarse();
            moments.push(&chain.correction(config.pairing, coarse.as_deref_mut()));
            let fine_qoi = Arc::clone(chain.current_qoi());
            rep_trace.push(fine_qoi[rep]);
            if config.record_samples {
                theta_samples.push(chain.state().theta.clone());
                if let Some(coarse) = chain.paired_qoi(PairingMode::Proposal, coarse) {
                    correction_pairs.push((coarse.to_vec(), fine_qoi.to_vec()));
                }
                qoi_samples.push(fine_qoi.to_vec());
            }
        }
        levels.push(LevelReport {
            level,
            n_samples,
            acceptance_rate: stack.top().acceptance_rate(),
            mean_correction: moments.mean(),
            var_correction: moments.variance(),
            iact: integrated_autocorrelation_time(&rep_trace),
            evaluations: 0,
            mean_eval_ms: 0.0,
            theta_samples,
            qoi_samples,
            correction_pairs,
        });
    }
    // evaluation counts are shared across terms: fill them in last
    for (level, report) in levels.iter_mut().enumerate() {
        report.evaluations = counters[level].evaluations();
        report.mean_eval_ms = counters[level].mean_eval_ms();
    }
    MlmcmcReport { levels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::test_support::GaussianHierarchy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_three_level(n: usize, seed: u64, record: bool) -> MlmcmcReport {
        let h = GaussianHierarchy::three_level(1);
        let mut config =
            MlmcmcConfig::new(vec![n, n / 4, n / 10]).with_burn_in(vec![500, 200, 100]);
        if record {
            config = config.recording();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        run_sequential(&h, &config, &mut rng)
    }

    #[test]
    fn telescoping_sum_recovers_finest_mean() {
        // levels target N(0.6), N(0.9), N(1.0): the telescoping estimate
        // must approach 1.0, not the coarse 0.6
        let report = run_three_level(40_000, 1, false);
        let est = report.expectation()[0];
        assert!((est - 1.0).abs() < 0.05, "telescoping estimate {est}");
    }

    #[test]
    fn correction_means_match_level_differences() {
        let report = run_three_level(40_000, 2, false);
        // E[Q_0] ≈ 0.6, E[Q_1 - Q_0] ≈ 0.3, E[Q_2 - Q_1] ≈ 0.1
        assert!((report.levels[0].mean_correction[0] - 0.6).abs() < 0.05);
        assert!((report.levels[1].mean_correction[0] - 0.3).abs() < 0.06);
        assert!((report.levels[2].mean_correction[0] - 0.1).abs() < 0.08);
    }

    #[test]
    fn partial_sums_are_cumulative() {
        let report = run_three_level(5_000, 3, false);
        let ps = report.partial_sums();
        assert_eq!(ps.len(), 3);
        let direct: f64 = report.levels.iter().map(|l| l.mean_correction[0]).sum();
        assert!((ps[2][0] - direct).abs() < 1e-12);
        assert!((ps[0][0] - report.levels[0].mean_correction[0]).abs() < 1e-12);
    }

    #[test]
    fn variance_decays_across_levels() {
        // the coupled corrections have (much) smaller variance than Q_0 —
        // the heart of the multilevel gain
        let report = run_three_level(30_000, 4, false);
        let v0 = report.levels[0].var_correction[0];
        let v1 = report.levels[1].var_correction[0];
        let v2 = report.levels[2].var_correction[0];
        assert!(v1 < v0, "V[Y_1] = {v1} should be below V[Q_0] = {v0}");
        assert!(v2 < v0, "V[Y_2] = {v2} should be below V[Q_0] = {v0}");
    }

    #[test]
    fn fine_levels_have_small_iact() {
        let report = run_three_level(20_000, 5, false);
        // coarse RW chain mixes slowly; coupled chains are near-iid
        assert!(report.levels[1].iact < report.levels[0].iact);
        assert!(report.levels[1].iact < 3.0);
    }

    #[test]
    fn evaluation_counts_respect_subsampling() {
        let report = run_three_level(2_000, 6, false);
        // level-0 evals ≫ level-2 evals: each level-1 sample costs ρ = 4
        // coarse steps, and level 0 also runs its own term
        assert!(report.levels[0].evaluations > 4 * report.levels[1].evaluations / 2);
        assert!(report.total_evaluations() > report.levels[2].evaluations);
        assert!(report.levels[2].evaluations >= 2_000 / 10);
    }

    #[test]
    fn recording_retains_samples_and_pairs() {
        let report = run_three_level(500, 7, true);
        assert_eq!(report.levels[0].theta_samples.len(), 500);
        assert!(report.levels[0].correction_pairs.is_empty());
        assert_eq!(report.levels[1].correction_pairs.len(), 125);
        // accepted coarse proposals appear as identical pairs (Fig. 14 dots)
        let identical = report.levels[1]
            .correction_pairs
            .iter()
            .filter(|(c, f)| c == f)
            .count();
        assert!(identical > 0, "some coarse proposals must be accepted");
    }

    #[test]
    fn without_recording_no_samples_retained() {
        let report = run_three_level(300, 8, false);
        assert!(report.levels[0].theta_samples.is_empty());
        assert!(report.levels[1].correction_pairs.is_empty());
    }

    #[test]
    fn serves_run_the_pairing_leg_only_where_a_correction_reads_the_mate() {
        use crate::coupled::CoarseSample;
        use crate::ledger::LedgerLease;
        let h = GaussianHierarchy::three_level(1);
        let rho = h.rho;
        let counted = || Hooked::new(&h, (0..3).map(|_| EvalCounter::new()).collect::<Vec<_>>());
        // evaluations per level since `before`
        let since = |f: &Hooked<'_, Vec<EvalCounter>>, before: &[usize]| -> Vec<usize> {
            let now = f.hook().iter().map(EvalCounter::evaluations);
            now.zip(before).map(|(n, b)| n - b).collect()
        };

        // (1) under `Proposal` no serve runs a second leg: each term's
        // stack starts (its chains' starting points and anchors: 1 / 2 / 3
        // level-0 densities, 1 / 2 level-1 ones), then every level-l step
        // serves one ρ-step leg from the level below, which serves each
        // of its kernel steps the same way. A level-0 step solves once, so
        // level 0's count is exact and counts every step above it; a
        // coupled step whose proposal did not move solves nothing, so a
        // coupled level's builds and steps bound its count.
        let (n, burn_in) = ([600, 150, 60], [50, 20, 10]);
        let config = MlmcmcConfig::new(n.to_vec()).with_burn_in(burn_in.to_vec());
        let report = run_sequential(&h, &config, &mut StdRng::seed_from_u64(3));
        let steps = |l: usize| n[l] + burn_in[l];
        let one_leg = [
            (1 + steps(0)) + (2 + rho * steps(1)) + (3 + rho * rho * steps(2)),
            (1 + steps(1)) + (2 + rho * steps(2)),
            1 + steps(2),
        ];
        let reported: Vec<usize> = report.levels.iter().map(|l| l.evaluations).collect();
        assert_eq!(reported[0], one_leg[0], "level-0 steps");
        for l in 1..3 {
            assert!(reported[l] <= one_leg[l], "level {l}: {reported:?}");
        }

        // (2) under `Ledger` only the top chain's own steps read the mate:
        // the top cursor's diverged serves run two legs, the nested ones
        // never do
        let factory = counted();
        let mut stack = ChainStack::new(&factory, 2);
        let built = since(&factory, &[0; 3]);
        let mut rng = StdRng::seed_from_u64(4);
        let k = 200;
        // the top chain's own steps whose proposal is its anchor
        let mut unmoved = 0;
        for _ in 0..k {
            let anchor = stack.top().anchor().expect("a coupled top").theta.clone();
            stack.step(&mut rng);
            let proposal = &stack.top().last_coarse().expect("a step").theta;
            unmoved += usize::from(*proposal == anchor);
        }
        let (top, nested) = (stack.cursor(1).clone(), stack.cursor(0).clone());
        let legs = k + top.diverged_serves as usize;
        assert!(top.diverged_serves > 0, "the top session never diverged");
        assert_eq!(top.serves as usize, k);
        assert_eq!(
            (nested.serves as usize, nested.diverged_serves),
            (rho * legs, 0)
        );
        assert!(
            nested.pairing.is_none(),
            "a nested serve moved a pairing track"
        );
        // level 0 solves at each of its ρ·ρ·legs steps, level 1 at most
        // at each of its ρ·legs (the nested serves), and the top chain at
        // each of its own steps whose proposal moved
        let ran = since(&factory, &built);
        assert_eq!((ran[0], ran[2]), (rho * rho * legs, k - unmoved));
        assert!(ran[1] <= nested.serves as usize, "{ran:?}");

        // (3) a lease without a mate on a diverged session: the proposal
        // of the same lease with one, bit for bit, after ρ kernel steps
        let serve = |mate: bool| {
            // the same level-1 server, its anchor and pairing state drawn
            // from its own trajectory
            let factory = counted();
            let mut stack = ChainStack::new(&factory, 1);
            let mut rng = StdRng::seed_from_u64(5);
            let mut after = |steps: usize| {
                for _ in 0..steps {
                    stack.step(&mut rng);
                }
                stack.top().current_as_sample()
            };
            let (anchor, pairing) = (after(30), after(30));
            let lease = LedgerLease {
                session_seed: 0x5EED,
                serves: 9,
                mate,
                pairing: mate.then_some(pairing),
                anchor,
            };
            let before = since(&factory, &[0; 3]);
            let outcome = stack.serve(rho, &lease);
            (lease, outcome, since(&factory, &before))
        };
        let (with, two, two_ran) = serve(true);
        let (_, one, one_ran) = serve(false);
        assert!(!with.merged() && two.diverged && !one.diverged);
        assert_eq!(two_ran, [2 * rho * rho, 2 * rho, 0]);
        assert_eq!(one_ran, [rho * rho, rho, 0]);
        assert!(one.pairing.is_none() && one.proposal.mate.is_none());
        let bits = |s: &CoarseSample| -> Vec<u64> {
            let anchor = s.sub_anchor.as_deref().expect("a level-1 sample");
            [
                &s.theta[..],
                &[s.log_density],
                &anchor.theta,
                &[anchor.log_density],
            ]
            .concat()
            .iter()
            .map(|x| x.to_bits())
            .collect()
        };
        assert_eq!(bits(&one.proposal), bits(&two.proposal));
    }

    #[test]
    fn single_level_run_is_plain_mcmc() {
        let h = GaussianHierarchy::three_level(1);
        let config = MlmcmcConfig::new(vec![20_000]).with_burn_in(vec![500]);
        let mut rng = StdRng::seed_from_u64(9);
        let report = run_sequential(&h, &config, &mut rng);
        assert_eq!(report.levels.len(), 1);
        assert!((report.expectation()[0] - 0.6).abs() < 0.05);
    }
}
