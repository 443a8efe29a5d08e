//! The protocol vocabulary of the parallel MLMCMC process architecture
//! (paper Section 4.2, Fig. 8).
//!
//! Rank layout: rank 0 is the **root** (launches the run, tracks level
//! completion, orchestrates shutdown), rank 1 the **phonebook** (routes
//! coarse-proposal requests to chains holding fresh samples, detects load
//! imbalance from queued requests vs. unclaimed samples, and reassigns
//! chain groups — Section 4.3), the next ranks are per-level
//! **collectors** (streaming moment accumulation of the telescoping
//! terms), and the remaining ranks are **controllers**, each running a
//! level-`l` chain built from the `uq-mlmcmc` coupled kernel. Controllers
//! on level `l ≥ 1` draw coarse proposals from level-`l-1` controllers
//! *through the phonebook*; the subsampling rate `ρ_l` is enforced by the
//! serving side (inside the ledger serve).
//!
//! This module holds what the roles say to each other ([`Msg`]), what a
//! run is configured with and reports ([`ParallelConfig`],
//! [`ParallelCheckpoint`], [`ParallelReport`]) and the rank layout. What
//! the roles *do* is written once, as the state machines in
//! [`crate::roles`], which is also where a run is started
//! ([`crate::Run::on`]).

use uq_mcmc::SamplingProblem;
use uq_mlmcmc::coupled::{CoarseSample, MlChain};
use uq_mlmcmc::ledger::{LedgerBook, LedgerLease, PairingMode};
use uq_mlmcmc::store::{ChainCkpt, CollectorCkpt, RunStore};

/// RNG stream seed of the controller at `rank` (the cross-executor
/// parity tests reproduce it).
pub fn controller_seed(base: u64, rank: usize) -> u64 {
    base.wrapping_add(rank as u64 * 0x9E37_79B9)
}

/// Messages exchanged between ranks.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Requester → phonebook: need one coarse sample from `level`,
    /// generated from the requester's current rewind `anchor`. `mate` is
    /// whether the requesting step reads the pairing mate
    /// ([`uq_mlmcmc::ledger::reads_mate`]); it travels on the request
    /// because the phonebook cannot tell a serve leg's request from an own
    /// step's that was sent earlier.
    CoarseRequest {
        level: usize,
        reply_to: usize,
        anchor: Box<CoarseSample>,
        mate: bool,
    },
    /// Phonebook → serving controller: execute one ledger serve for
    /// `reply_to` (the lease carries the session state and anchor).
    Serve {
        reply_to: usize,
        lease: Box<LedgerLease>,
    },
    /// Serving controller → requester: the served proposal (its `mate`
    /// field carries the ledger pairing state if the lease asked for it).
    CoarseSample {
        level: usize,
        sample: Box<CoarseSample>,
    },
    /// Serving controller → phonebook: one message concluding a serve —
    /// the ledger write-back and the availability re-announce folded
    /// together. It carries what the write-back reads; the proposal goes
    /// to the requester alone.
    ServeDone {
        requester: usize,
        level: usize,
        /// Session stream position after this serve (`lease.serves + 1`).
        serves: u64,
        /// The pairing track's end state (the session's next `pairing`);
        /// `None` when the lease had no mate and the track did not move.
        pairing: Option<Box<CoarseSample>>,
        /// The pairing leg ran separately from the proposal leg.
        diverged: bool,
    },
    /// Controller → phonebook: a fresh subsampled state is available.
    SampleReady { level: usize },
    /// Controller → collector: one telescoping-term sample. Only `y`
    /// enters the estimator; an empty `y` repeats the last `y` this
    /// sender sent its collector (the step's fine and paired coarse QOI
    /// are the allocations of that correction's; a QOI of dimension 0
    /// sends an empty `y` anyway). The recorded triple (`theta`,
    /// `fine_qoi`, `coarse_qoi`) travels only when it is recorded —
    /// without `config.record_samples` it is empty / `None`
    /// (`Msg::correction` builds this variant).
    Correction {
        level: usize,
        y: Vec<f64>,
        theta: Vec<f64>,
        fine_qoi: Vec<f64>,
        coarse_qoi: Option<Vec<f64>>,
    },
    /// Collector → root: level target reached.
    LevelDone { level: usize },
    /// Root → controllers (broadcast): stop producing corrections for
    /// `level` (keep serving proposals).
    StopProducing { level: usize },
    /// Phonebook → controller: dynamic load balancing reassignment.
    Reassign { level: usize },
    /// Root → everyone: tear down.
    Shutdown,
    /// Phonebook → root at shutdown: routing/batching statistics, and the
    /// acknowledgement that it forwards nothing more.
    PhonebookReport(Box<crate::roles::PhonebookStats>),
    /// Collector → root at shutdown: the level's final state, the same
    /// value a checkpoint cuts.
    CollectorReport(Box<CollectorCkpt>),
    /// Controller → root at exit: per-level evaluation counts.
    ControllerReport {
        evals: Vec<usize>,
        eval_secs: Vec<f64>,
    },
    /// Top-level collector → root: a checkpoint interval elapsed (sent
    /// every `every` recorded corrections when checkpointing is on).
    CheckpointTick,
    /// Root → controllers, then (once all controllers acked) root →
    /// phonebook: pause own-chain stepping at the next clean boundary
    /// and capture state. Serving continues while paused, so requesters
    /// blocked mid-step still get their proposals and reach their own
    /// clean boundary.
    Checkpoint,
    /// Controller → its level's collector: per-destination-FIFO marker
    /// sent after the controller's last pre-pause [`Msg::Correction`].
    /// Once a collector has one flush per chain on its level, its count
    /// and moments are consistent with every captured chain state.
    CheckpointFlush,
    /// Controller → root: captured chain state for the snapshot.
    ControllerCkpt(Box<ChainCkpt>),
    /// Collector → root: captured accumulator state for the snapshot.
    CollectorCkpt(Box<CollectorCkpt>),
    /// Phonebook → root: a copy of the ledger book, sent only once every
    /// dispatched serve has written back (`in_flight == 0`), so the
    /// copy reflects all serve outcomes the captured chains observed.
    LedgerCkpt(Box<LedgerBook>),
    /// Root → controllers (broadcast): snapshot persisted, resume
    /// stepping.
    CheckpointDone,
}

impl Msg {
    /// The [`Msg::Correction`] for `chain`'s just-completed producing
    /// step: `y` is [`MlChain::correction`] under `pairing` (which reads
    /// the step's QOI, and fills its coarse mate's on `coarse`, the level
    /// below's problem); the recorded triple is filled only under
    /// `record`, and its pair always shows the proposal coupling.
    pub fn correction(
        level: usize,
        chain: &mut MlChain,
        mut coarse: Option<&mut (dyn SamplingProblem + 'static)>,
        pairing: PairingMode,
        record: bool,
    ) -> Msg {
        let y = chain.correction(pairing, coarse.as_deref_mut());
        Msg::recorded_correction(level, y, chain, coarse, record)
    }

    /// The [`Msg::Correction`] of `chain`'s just-completed producing step
    /// carrying `y` as given, with the recorded triple filled as
    /// [`Msg::correction`] fills it.
    pub(crate) fn recorded_correction(
        level: usize,
        y: Vec<f64>,
        chain: &mut MlChain,
        coarse: Option<&mut (dyn SamplingProblem + 'static)>,
        record: bool,
    ) -> Msg {
        let recorded = |v: &[f64]| if record { v.to_vec() } else { Vec::new() };
        let fine_qoi = recorded(chain.current_qoi());
        let coarse_qoi = if record {
            chain.paired_qoi(PairingMode::Proposal, coarse)
        } else {
            None
        };
        Msg::Correction {
            level,
            y,
            theta: recorded(&chain.state().theta),
            fine_qoi,
            coarse_qoi: coarse_qoi.map(|c| c.to_vec()),
        }
    }
}

/// Post-snapshot hook for the parallel backends, called with
/// `(samples_done at the cut, content hash)`.
pub type ParallelSnapshotHook<'a> = dyn Fn(usize, &str) + Sync + 'a;

/// Checkpointing policy for a parallel run: where snapshots go, how the
/// format header is keyed, and how often the top-level collector ticks.
pub struct ParallelCheckpoint<'a> {
    /// Content-addressed store receiving the snapshots.
    pub store: &'a RunStore,
    /// Configuration hash written into every snapshot header (resume
    /// refuses snapshots taken under a different hash).
    pub config_hash: u64,
    /// Checkpoint every `every` top-level corrections (0 disables).
    pub every: usize,
    /// Called after each persisted snapshot with `(samples_done, hash)`
    /// — the crash-injection harness aborts the process from here.
    pub on_snapshot: Option<&'a ParallelSnapshotHook<'a>>,
    /// Cooperative-preemption flag. When set at the completion of a
    /// quiesce barrier, the run keeps the just-persisted snapshot as its
    /// resume point and drives the normal graceful shutdown instead of
    /// resuming the controllers — the barrier is fully quiescent (every
    /// chain paused at a clean boundary, ledger drained, nothing in
    /// flight), so stopping there strands no `ServeJob` and the snapshot
    /// resumes bit-identically. The root honours it on every
    /// [`crate::Placement`], a net one included, and the partial report
    /// comes back flagged ([`crate::RuntimeReport::preempted`]).
    pub stop: Option<&'a std::sync::atomic::AtomicBool>,
}

/// Configuration of a parallel run.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Target samples per level (`N_l`).
    pub samples_per_level: Vec<usize>,
    /// Burn-in steps per chain.
    pub burn_in: Vec<usize>,
    /// Initial number of chain groups per level.
    pub chains_per_level: Vec<usize>,
    /// Enable the phonebook's dynamic load balancer (Section 4.3).
    pub load_balancing: bool,
    /// Retain per-sample traces in the collectors (figures).
    pub record_samples: bool,
    /// Base RNG seed (each controller derives its own stream).
    pub seed: u64,
    /// Which coarse stream the correction moments pair against (see
    /// [`uq_mlmcmc::ledger::PairingMode`]).
    pub pairing: PairingMode,
}

pub(crate) const ROOT: usize = 0;
pub(crate) const PHONEBOOK: usize = 1;

impl ParallelConfig {
    pub fn new(samples_per_level: Vec<usize>, chains_per_level: Vec<usize>) -> Self {
        assert_eq!(samples_per_level.len(), chains_per_level.len());
        let n = samples_per_level.len();
        Self {
            samples_per_level,
            burn_in: vec![0; n],
            chains_per_level,
            load_balancing: true,
            record_samples: false,
            seed: 7,
            // the parallel backends default to the unbiased ledger
            // pairing: their pre-ledger serving was effectively unbiased
            // (independent stationary draws), so the proposal pairing's
            // O(contraction^ρ) bias would be a correctness regression
            // here. The sequential driver keeps the low-variance proposal
            // pairing by default — see DESIGN.md §5.
            pairing: PairingMode::Ledger,
        }
    }

    pub fn n_levels(&self) -> usize {
        self.samples_per_level.len()
    }

    /// Total ranks: root + phonebook + one collector per level + chains.
    pub fn n_ranks(&self) -> usize {
        self.first_controller_rank() + self.chains_per_level.iter().sum::<usize>()
    }

    /// Rank of `level`'s collector: the one statement of the layout root,
    /// phonebook, collectors level by level, then controllers.
    pub(crate) fn collector_rank(&self, level: usize) -> usize {
        2 + level
    }

    pub(crate) fn first_controller_rank(&self) -> usize {
        self.collector_rank(self.n_levels())
    }

    pub(crate) fn n_controllers(&self) -> usize {
        self.n_ranks() - self.first_controller_rank()
    }

    /// Initial level of the controller at `rank`.
    pub(crate) fn initial_level(&self, rank: usize) -> usize {
        let mut offset = rank - self.first_controller_rank();
        for (level, &count) in self.chains_per_level.iter().enumerate() {
            if offset < count {
                return level;
            }
            offset -= count;
        }
        unreachable!("rank beyond controller range")
    }
}

/// Per-level results of a parallel run.
#[derive(Clone, Debug)]
pub struct ParallelLevelReport {
    pub level: usize,
    pub n_samples: usize,
    /// `E[Q_0]` or `E[Q_l - Q_{l-1}]` per QOI component.
    pub mean_correction: Vec<f64>,
    pub var_correction: Vec<f64>,
    pub evaluations: usize,
    pub mean_eval_ms: f64,
    pub theta_samples: Vec<Vec<f64>>,
    pub correction_pairs: Vec<(Vec<f64>, Vec<f64>)>,
}

/// Results of a parallel MLMCMC run.
#[derive(Clone, Debug)]
pub struct ParallelReport {
    pub levels: Vec<ParallelLevelReport>,
    /// Wall-clock duration of the whole run in seconds.
    pub elapsed: f64,
    pub n_ranks: usize,
    /// Number of load-balancer reassignments performed.
    pub reassignments: usize,
}

impl ParallelReport {
    /// The telescoping-sum estimate.
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

    pub fn total_evaluations(&self) -> usize {
        self.levels.iter().map(|l| l.evaluations).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::policy::{self, Exec, GaussianHierarchy};
    use crate::{run_parallel, Tracer};

    #[test]
    fn thread_resume_from_every_snapshot_is_bit_identical() {
        // two levels: the serving chains are base chains, so serve legs
        // make no nested coarse requests and every ledger session sees a
        // deterministic request order — the regime where a pool of any
        // width (here two workers), and any delivery order the simulator
        // draws, is bit-reproducible (three-level runs interleave
        // own-step and serve-leg requests on mid-level sessions by
        // arrival order; see DESIGN.md §7)
        let mut config = ParallelConfig::new(vec![300, 120], vec![1, 1]);
        config.burn_in = vec![30, 20];
        for exec in [policy::EXECS[1], Exec::Sim { seed: 11 }] {
            let h = GaussianHierarchy::two_level();
            policy::resume_from_every_snapshot_is_bit_identical(exec, &h, config.clone(), 7);
        }
    }

    #[test]
    fn extra_chains_on_coarse_level_share_load() {
        let h = GaussianHierarchy::three_level();
        let config = ParallelConfig::new(vec![4000, 800, 300], vec![3, 1, 1]);
        let report = run_parallel(&h, &config, &Tracer::disabled());
        assert_eq!(report.levels[0].n_samples, 4000);
        assert!(report.expectation()[0].is_finite());
    }
}
