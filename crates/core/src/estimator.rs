//! The multilevel telescoping estimator (paper eq. 2) and the sequential
//! MLMCMC driver.
//!
//! `E[Q_L] ≈ E[Q_0] + Σ_{l=1}^{L} E[Q_l - Q_{l-1}]`: the level-0 term is
//! estimated by a conventional chain, each correction term by a coupled
//! chain served by the chains below it (a [`ChainStack`]).
//! The driver records everything the paper tabulates: per-level means,
//! correction variances, integrated autocorrelation times, acceptance
//! rates, evaluation counts and mean evaluation cost.
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
//! degenerating the correction to zero. See DESIGN.md §5 for the full
//! discussion and measured trade-off.

use crate::counting::{EvalCounter, Hooked};
use crate::coupled::ChainStack;
use crate::factory::LevelFactory;
use crate::ledger::PairingMode;
use crate::store::{Backend, RunSnapshot, RunStore, SequentialCkpt};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// The telescoping term in progress: its accumulators, and how many of
/// its samples are recorded. A sequential snapshot holds it as it is.
#[derive(Clone, Debug, PartialEq)]
pub struct Term {
    /// Samples already recorded in the term (burn-in done).
    pub samples_done: usize,
    pub moments: VectorMoments,
    /// Representative-component trace (feeds the IACT column).
    pub rep_trace: Vec<f64>,
    pub theta_samples: Vec<Vec<f64>>,
    pub qoi_samples: Vec<Vec<f64>>,
    pub correction_pairs: Vec<(Vec<f64>, Vec<f64>)>,
}

impl Term {
    fn fresh(qoi_dim: usize) -> Self {
        Term {
            samples_done: 0,
            moments: VectorMoments::new(qoi_dim),
            rep_trace: Vec::new(),
            theta_samples: Vec::new(),
            qoi_samples: Vec::new(),
            correction_pairs: Vec::new(),
        }
    }
}

/// The run between two samples, as [`sample_terms`] shows it to its
/// "after sample" hook: everything a snapshot is cut from.
struct Cut<'a> {
    /// Samples recorded so far, all terms together.
    total_recorded: usize,
    level: usize,
    term: &'a Term,
    stack: &'a mut ChainStack,
    completed: &'a [LevelReport],
    counters: &'a [EvalCounter],
    eval_offsets: &'a [usize],
}

impl Cut<'_> {
    /// The resume cursor of this cut, with the generator at `rng`.
    fn cursor(&mut self, rng: [u64; 4]) -> SequentialCkpt {
        let (chains, cursors) = self.stack.export_state();
        SequentialCkpt {
            level: self.level,
            term: self.term.clone(),
            chains,
            cursors,
            rng,
            completed: self.completed.to_vec(),
            eval_offsets: self
                .counters
                .iter()
                .zip(self.eval_offsets)
                .map(|(c, off)| c.evaluations() + off)
                .collect(),
        }
    }
}

/// The sampling loop of both sequential drivers: a conventional chain on
/// level 0 and one coupled chain per correction term, each on top of its
/// own [`ChainStack`], from `cursor` (the start, with `None`) to the
/// end; `after_sample` sees the generator and the [`Cut`] after every
/// recorded sample (burn-in steps are not samples).
fn sample_terms<R: Rng>(
    factory: &dyn LevelFactory,
    config: &MlmcmcConfig,
    rng: &mut R,
    cursor: Option<&SequentialCkpt>,
    mut after_sample: impl FnMut(&R, &mut Cut<'_>),
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

    let mut eval_offsets = vec![0usize; factory.n_levels()];
    let mut levels: Vec<LevelReport> = Vec::with_capacity(n_levels);
    if let Some(c) = cursor {
        for (dst, &off) in eval_offsets.iter_mut().zip(&c.eval_offsets) {
            *dst = off;
        }
        levels.extend(c.completed.iter().cloned());
    }
    let mut total_recorded: usize = levels.iter().map(|l| l.n_samples).sum();

    for level in cursor.map_or(0, |c| c.level)..n_levels {
        let resuming_term = cursor.filter(|c| c.level == level);
        let pre_build: Vec<usize> = counters.iter().map(|c| c.evaluations()).collect();
        let mut stack = ChainStack::new(&counting, level);
        if resuming_term.is_some() {
            // rebuilding the stack re-evaluates each level's initial
            // state; the original construction is already inside the
            // offsets, so discount the rebuild to keep counts exact
            for (k, counter) in counters.iter().enumerate() {
                let rebuild = counter.evaluations() - pre_build[k];
                debug_assert!(eval_offsets[k] >= rebuild);
                eval_offsets[k] = eval_offsets[k].saturating_sub(rebuild);
            }
        }
        let mut term = match resuming_term {
            None => {
                for _ in 0..config.burn_in[level] {
                    stack.step(rng);
                }
                Term::fresh(stack.top().current_qoi().len())
            }
            Some(c) => {
                stack.import_state(c.chains.clone(), c.cursors.clone());
                c.term.clone()
            }
        };
        let n_samples = config.samples_per_level[level];
        let qoi_dim = stack.top().current_qoi().len();
        let rep = config
            .representative_component
            .min(qoi_dim.saturating_sub(1));
        while term.samples_done < n_samples {
            stack.step(rng);
            let (chain, mut coarse) = stack.top_and_coarse();
            term.moments
                .push(&chain.correction(config.pairing, coarse.as_deref_mut()));
            let fine_qoi = Arc::clone(chain.current_qoi());
            term.rep_trace.push(fine_qoi[rep]);
            if config.record_samples {
                term.theta_samples.push(chain.state().theta.clone());
                if let Some(coarse) = chain.paired_qoi(PairingMode::Proposal, coarse) {
                    term.correction_pairs
                        .push((coarse.to_vec(), fine_qoi.to_vec()));
                }
                term.qoi_samples.push(fine_qoi.to_vec());
            }
            term.samples_done += 1;
            total_recorded += 1;
            after_sample(
                rng,
                &mut Cut {
                    total_recorded,
                    level,
                    term: &term,
                    stack: &mut stack,
                    completed: &levels,
                    counters,
                    eval_offsets: &eval_offsets,
                },
            );
        }
        levels.push(LevelReport {
            level,
            n_samples,
            acceptance_rate: stack.top().acceptance_rate(),
            mean_correction: term.moments.mean(),
            var_correction: term.moments.variance(),
            iact: integrated_autocorrelation_time(&term.rep_trace),
            evaluations: 0,
            mean_eval_ms: 0.0,
            theta_samples: term.theta_samples,
            qoi_samples: term.qoi_samples,
            correction_pairs: term.correction_pairs,
        });
    }
    // evaluation counts are shared across terms: fill them in last
    for (level, report) in levels.iter_mut().enumerate() {
        report.evaluations = counters[level].evaluations() + eval_offsets[level];
        report.mean_eval_ms = counters[level].mean_eval_ms();
    }
    MlmcmcReport { levels }
}

/// Sequential multilevel MCMC (paper Algorithm 2 driven level by level).
///
/// Runs a conventional chain on level 0 and one coupled chain per
/// correction term, each on top of its own [`ChainStack`], and assembles
/// the telescoping report.
pub fn run_sequential(
    factory: &dyn LevelFactory,
    config: &MlmcmcConfig,
    mut rng: &mut dyn Rng,
) -> MlmcmcReport {
    sample_terms(factory, config, &mut rng, None, |_, _| {})
}

/// Post-snapshot hook, called with `(snapshot ordinal, content hash)`.
pub type SnapshotHook<'a> = dyn Fn(usize, &str) + 'a;

/// Where and how often the checkpointable sequential driver snapshots.
pub struct CheckpointSpec<'a> {
    /// Destination run store.
    pub store: &'a RunStore,
    /// Configuration hash stamped into each snapshot header (resume
    /// refuses snapshots taken under a different configuration).
    pub config_hash: u64,
    /// Snapshot every `every` recorded samples (global count across
    /// all telescoping terms; burn-in steps never checkpoint).
    pub every: usize,
    /// Called after each snapshot with `(ordinal, content hash)` — the
    /// crash-injection harness aborts the process from here.
    pub on_snapshot: Option<&'a SnapshotHook<'a>>,
}

/// Checkpointable sequential MLMCMC: the loop of [`run_sequential`],
/// plus periodic consistent snapshots to a [`RunStore`] and the ability
/// to resume from one bit-for-bit.
///
/// Unlike [`run_sequential`] this driver owns its RNG (seeded from
/// `seed`, or restored from the snapshot's captured stream position on
/// resume) because checkpointing must capture the generator state.
/// With `checkpoint = None` and `resume = None` it produces exactly the
/// report `run_sequential` produces for an `StdRng` seeded with `seed`.
///
/// Timing columns (`mean_eval_ms`) are wall-clock measurements, not
/// logical state: a resumed run reports timings of the resumed portion
/// only. Evaluation *counts* are restored exactly via per-level offsets
/// recorded in the snapshot.
///
/// # Panics
///
/// Panics if `resume` holds a snapshot from a different backend or
/// base seed (config mismatches are already rejected at decode time
/// via the header hash).
pub fn run_sequential_ckpt(
    factory: &dyn LevelFactory,
    config: &MlmcmcConfig,
    seed: u64,
    checkpoint: Option<&CheckpointSpec<'_>>,
    resume: Option<&RunSnapshot>,
) -> MlmcmcReport {
    let cursor = resume.map(|snap| {
        assert_eq!(
            snap.backend,
            Backend::Sequential,
            "run_sequential_ckpt: snapshot was taken by the {} backend",
            snap.backend
        );
        assert_eq!(
            snap.seed, seed,
            "run_sequential_ckpt: snapshot seed mismatch"
        );
        snap.sequential
            .as_ref()
            .expect("sequential snapshot missing its cursor section")
    });
    let mut rng = match cursor {
        None => StdRng::seed_from_u64(seed),
        Some(c) => StdRng::from_state(c.rng),
    };
    let mut snapshots_taken = 0usize;
    sample_terms(factory, config, &mut rng, cursor, |rng, cut| {
        let Some(spec) = checkpoint else { return };
        if spec.every == 0 || !cut.total_recorded.is_multiple_of(spec.every) {
            return;
        }
        let snap = RunSnapshot {
            backend: Backend::Sequential,
            seed,
            samples_done: cut.total_recorded,
            chains: Vec::new(),
            collectors: Vec::new(),
            ledger: None,
            sequential: Some(cut.cursor(rng.state())),
        };
        let hash = spec
            .store
            .put_snapshot(&snap, spec.config_hash)
            .expect("run_sequential_ckpt: snapshot write failed");
        snapshots_taken += 1;
        if let Some(hook) = spec.on_snapshot {
            hook(snapshots_taken, &hash);
        }
    })
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
    fn single_level_run_is_plain_mcmc() {
        let h = GaussianHierarchy::three_level(1);
        let config = MlmcmcConfig::new(vec![20_000]).with_burn_in(vec![500]);
        let mut rng = StdRng::seed_from_u64(9);
        let report = run_sequential(&h, &config, &mut rng);
        assert_eq!(report.levels.len(), 1);
        assert!((report.expectation()[0] - 0.6).abs() < 0.05);
    }

    /// Bit-level equality of everything except wall-clock timing.
    fn assert_reports_identical(a: &MlmcmcReport, b: &MlmcmcReport) {
        assert_eq!(a.levels.len(), b.levels.len());
        for (x, y) in a.levels.iter().zip(&b.levels) {
            assert_eq!(x.level, y.level);
            assert_eq!(x.n_samples, y.n_samples);
            assert_eq!(x.acceptance_rate.to_bits(), y.acceptance_rate.to_bits());
            assert_eq!(x.mean_correction, y.mean_correction, "level {}", x.level);
            assert_eq!(x.var_correction, y.var_correction, "level {}", x.level);
            assert_eq!(x.iact.to_bits(), y.iact.to_bits(), "level {}", x.level);
            assert_eq!(x.evaluations, y.evaluations, "level {}", x.level);
            assert_eq!(x.theta_samples, y.theta_samples, "level {}", x.level);
            assert_eq!(x.qoi_samples, y.qoi_samples, "level {}", x.level);
            assert_eq!(x.correction_pairs, y.correction_pairs, "level {}", x.level);
        }
    }

    #[test]
    fn ckpt_driver_without_checkpoints_matches_plain_driver() {
        let h = GaussianHierarchy::three_level(1);
        let config = MlmcmcConfig::new(vec![800, 200, 80])
            .with_burn_in(vec![50, 30, 10])
            .recording();
        let mut rng = StdRng::seed_from_u64(2024);
        let plain = run_sequential(&h, &config, &mut rng);
        let ckpt = run_sequential_ckpt(&h, &config, 2024, None, None);
        assert_reports_identical(&plain, &ckpt);
    }

    #[test]
    fn resume_from_every_snapshot_is_bit_identical() {
        let h = GaussianHierarchy::three_level(1);
        let config = MlmcmcConfig::new(vec![300, 120, 50])
            .with_burn_in(vec![40, 20, 10])
            .recording();
        let seed = 77;
        let uninterrupted = run_sequential_ckpt(&h, &config, seed, None, None);

        let dir = std::env::temp_dir().join(format!("uq-seq-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).unwrap();
        let spec = CheckpointSpec {
            store: &store,
            config_hash: 11,
            every: 37, // lands mid-term on every level and across terms
            on_snapshot: None,
        };
        let with_ckpts = run_sequential_ckpt(&h, &config, seed, Some(&spec), None);
        assert_reports_identical(&uninterrupted, &with_ckpts);

        let records = store.manifest_records().unwrap();
        let hashes: Vec<String> = records
            .iter()
            .filter(|r| r.get("kind") == Some("snapshot"))
            .map(|r| r.get("hash").unwrap().to_string())
            .collect();
        assert!(
            hashes.len() >= 10,
            "expected many snapshots, got {}",
            hashes.len()
        );
        for hash in &hashes {
            let (snap, config_hash) = store.get_snapshot(hash).unwrap();
            assert_eq!(config_hash, 11);
            let resumed = run_sequential_ckpt(&h, &config, seed, None, Some(&snap));
            assert_reports_identical(&uninterrupted, &resumed);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
