//! The parallel MLMCMC process architecture (paper Section 4.2, Fig. 8).
//!
//! Rank layout: rank 0 is the **root** (launches the run, tracks level
//! completion, orchestrates shutdown), rank 1 the **phonebook** (routes
//! coarse-proposal requests to chains holding fresh samples, detects load
//! imbalance from queued requests vs. unclaimed samples, and reassigns
//! chain groups — Section 4.3), ranks `2..2+L+1` are per-level
//! **collectors** (streaming moment accumulation of the telescoping
//! terms), and the remaining ranks are **controllers**, each running a
//! level-`l` chain built from the `uq-mlmcmc` coupled kernel. Controllers
//! on level `l ≥ 1` draw coarse proposals from level-`l-1` controllers
//! *through the phonebook*; the subsampling rate `ρ_l` is enforced by the
//! serving side (a chain only announces a sample as ready after `ρ_l`
//! further steps).
//!
//! Shutdown is deadlock-free by construction: every blocking receive also
//! matches `Poison`/`Shutdown`, the phonebook poisons queued requests
//! before acknowledging shutdown, and the root only shuts controllers
//! down after the phonebook acknowledged (so no request can be forwarded
//! to an already-exited server without its requester also being woken).

use crate::comm::{RankCtx, Universe};
use crate::obs::{Counter, Hist, SpanKind, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use uq_mcmc::stats::VectorMoments;
use uq_mcmc::SamplingProblem;
use uq_mlmcmc::counting::{CountingProblem, EvalCounter};
use uq_mlmcmc::coupled::{CoarseAcquire, CoarseProposalSource, CoarseSample, MlChain};
use uq_mlmcmc::ledger::{self, LedgerBook, LedgerLease, LedgerState, PairingMode, ServeOutcome};
use uq_mlmcmc::store::{Backend, ChainCkpt, CollectorCkpt, RunSnapshot, RunStore};
use uq_mlmcmc::LevelFactory;

/// RNG stream seed of the controller at `rank` (shared by the thread
/// scheduler and the cooperative runtime so their chains are
/// stream-identical on identical configs — the cross-backend parity
/// tests reproduce it).
pub fn controller_seed(base: u64, rank: usize) -> u64 {
    base.wrapping_add(rank as u64 * 0x9E37_79B9)
}

/// Messages exchanged between ranks.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Requester → phonebook: need one coarse sample from `level`,
    /// generated from the requester's current rewind `anchor`.
    CoarseRequest {
        level: usize,
        reply_to: usize,
        anchor: Box<CoarseSample>,
    },
    /// Phonebook → serving controller: execute one ledger serve for
    /// `reply_to` (the lease carries the session state and anchor).
    /// `speculative` serves are accept-case precomputations: the result
    /// goes back to the phonebook (inside [`Msg::ServeDone`]) instead of
    /// to `reply_to`, who never asked.
    Serve {
        reply_to: usize,
        lease: Box<LedgerLease>,
        speculative: bool,
    },
    /// Serving controller → requester: the served proposal (its `mate`
    /// field carries the ledger pairing state).
    CoarseSample {
        level: usize,
        sample: Box<CoarseSample>,
    },
    /// Serving controller → phonebook: one batched message concluding a
    /// serve — the ledger write-back, the speculative outcome (when
    /// `speculative`) and the availability re-announce folded together
    /// (PR 4 sent a separate `LedgerUpdate` plus `SampleReady` here).
    /// `session` echoes the lease's session seed so the phonebook can
    /// drop write-backs from dead session generations.
    ServeDone {
        requester: usize,
        level: usize,
        session: u64,
        /// Session stream position after this serve (`lease.serves + 1`).
        serves: u64,
        outcome: Box<ServeOutcome>,
        speculative: bool,
    },
    /// Teardown answer to a request that can no longer be served.
    Poison,
    /// Controller → phonebook: a fresh subsampled state is available.
    SampleReady { level: usize },
    /// Controller → collector: one telescoping-term sample. Only `y`
    /// enters the estimator; the recorded triple (`theta`, `fine_qoi`,
    /// `coarse_qoi`) travels only when it is recorded — without
    /// `config.record_samples` it is empty / `None` (`Msg::correction`
    /// builds this variant for both role bodies).
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
    /// Phonebook → root: shutdown acknowledged, no more forwards.
    PhonebookDown,
    /// Phonebook → root at shutdown: routing/batching statistics (sent by
    /// the cooperative runtime's phonebook; the thread scheduler's sends
    /// none and every role ignores it).
    PhonebookReport(Box<crate::roles::PhonebookStats>),
    /// Collector → root at shutdown: accumulated statistics.
    CollectorReport(Box<CollectorData>),
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
    /// Phonebook → root: the full ledger export, sent only once every
    /// dispatched serve has written back (`in_flight == 0`), so the
    /// export reflects all serve outcomes the captured chains observed.
    LedgerCkpt(Box<LedgerState>),
    /// Root → controllers (broadcast): snapshot persisted, resume
    /// stepping.
    CheckpointDone,
    /// Root → a controller being migrated (net transport): exit this
    /// thread at the held checkpoint barrier instead of resuming. The
    /// rank's state travels in the barrier snapshot; the transport
    /// re-hosts it elsewhere and rewires routes before anyone may send
    /// to it again (see `crate::net`).
    Retire,
}

impl Msg {
    /// The [`Msg::Correction`] for `chain`'s just-completed producing
    /// step: `y` is the fine QOI minus the paired coarse one (the bare
    /// QOI on level 0); the recorded triple is filled only under
    /// `record`, and its pair always shows the proposal coupling.
    pub(crate) fn correction(
        level: usize,
        chain: &MlChain,
        pairing: PairingMode,
        record: bool,
    ) -> Msg {
        let state = chain.state();
        let paired = match pairing {
            PairingMode::Proposal => chain.last_coarse(),
            PairingMode::Ledger => chain.last_pairing(),
        };
        let y = match paired {
            None => state.qoi.clone(),
            Some(c) => state.qoi.iter().zip(&c.qoi).map(|(f, cq)| f - cq).collect(),
        };
        let recorded = |v: &Vec<f64>| if record { v.clone() } else { Vec::new() };
        Msg::Correction {
            level,
            y,
            theta: recorded(&state.theta),
            fine_qoi: recorded(&state.qoi),
            coarse_qoi: chain
                .last_coarse()
                .filter(|_| record)
                .map(|c| c.qoi.clone()),
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
    /// Cooperative-preemption flag (runtime backend only). When set at
    /// the completion of a quiesce barrier, the run keeps the
    /// just-persisted snapshot as its resume point and drives the normal
    /// graceful shutdown instead of resuming the controllers — the
    /// barrier is fully quiescent (every chain paused at a clean
    /// boundary, ledger drained, nothing in flight), so stopping there
    /// strands no `ServeJob` and the snapshot resumes bit-identically.
    /// Reported via [`crate::RuntimeReport::preempted`]; the thread
    /// scheduler ignores the flag (the always-on service runs on the
    /// runtime backend).
    pub stop: Option<&'a std::sync::atomic::AtomicBool>,
}

/// Transport hooks for elastic membership (used by `crate::net`): at
/// every completed checkpoint barrier the root asks the transport which
/// ranks must retire (`plan`), sends each a [`Msg::Retire`], and blocks
/// in `rehost` until the transport has re-hosted those ranks elsewhere
/// from the just-persisted snapshot and rewired its routes. Only then
/// is `CheckpointDone` broadcast and stepping resumed — the barrier
/// window (every chain paused at a clean boundary, ledger drained, no
/// messages in flight toward controllers) is what makes migration a
/// plain data move.
pub(crate) struct ElasticOps<'a> {
    pub plan: &'a (dyn Fn(&RunSnapshot) -> Vec<usize> + Sync),
    pub rehost: &'a (dyn Fn(&RunSnapshot, &[usize]) + Sync),
}

/// Data a collector ships back to the root.
#[derive(Clone, Debug)]
pub struct CollectorData {
    pub level: usize,
    pub n_samples: usize,
    pub mean: Vec<f64>,
    pub variance: Vec<f64>,
    pub theta_samples: Vec<Vec<f64>>,
    pub correction_pairs: Vec<(Vec<f64>, Vec<f64>)>,
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
    /// Dispatch speculative accept-case serves to idle servers (see
    /// [`uq_mlmcmc::ledger::LedgerBook`]). Statistically inert either
    /// way — a committed speculation is bit-identical to the real serve
    /// it replaces and a discarded one never touches session state
    /// (pinned by `tests/speculation_conformance.rs`) — so it defaults
    /// to on; the switch exists for A/B measurement and the conformance
    /// suite itself.
    pub speculation: bool,
}

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
            speculation: true,
        }
    }

    pub fn n_levels(&self) -> usize {
        self.samples_per_level.len()
    }

    /// Total ranks: root + phonebook + one collector per level + chains.
    pub fn n_ranks(&self) -> usize {
        2 + self.n_levels() + self.chains_per_level.iter().sum::<usize>()
    }

    pub(crate) fn first_controller_rank(&self) -> usize {
        2 + self.n_levels()
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

// ---------------------------------------------------------------------
// remote coarse-proposal source
// ---------------------------------------------------------------------

/// Shared handle to this rank's communication context (single-threaded
/// use; the mutex only satisfies `Send` requirements).
type SharedCtx = Arc<parking_lot::Mutex<RankCtx<Msg>>>;

/// A [`CoarseProposalSource`] that requests subsampled states from
/// level-`coarse_level` controllers through the phonebook.
struct RemoteCoarseSource {
    coarse_level: usize,
    ctx: SharedCtx,
    my_rank: usize,
    stop: Arc<AtomicBool>,
    /// Lazily constructed coarse problem for the one-off starting-point
    /// density evaluation.
    coarse_problem: Box<dyn SamplingProblem>,
    tracer: Tracer,
}

impl CoarseProposalSource for RemoteCoarseSource {
    // The request ships the requester's rewind anchor; the phonebook
    // attaches this requester's ledger lease and a serving controller
    // executes the serve (per-requester exactness rewind + autonomous
    // pairing track — see uq-mlmcmc's ledger docs).
    //
    // This source blocks its OS-thread rank inside `recv_match` (the
    // thread scheduler dedicates a thread per rank), so it is always
    // `Ready`; the cooperative runtime's controllers use
    // `PendingCoarseSource` and suspend instead.
    fn request_coarse(&mut self, _rng: &mut dyn Rng, anchor: &CoarseSample) -> CoarseAcquire {
        if self.stop.load(Ordering::Relaxed) {
            return CoarseAcquire::Ready(poison_sample());
        }
        let mut ctx = self.ctx.lock();
        let wait_start = self.tracer.now();
        ctx.send(
            PHONEBOOK,
            Msg::CoarseRequest {
                level: self.coarse_level,
                reply_to: self.my_rank,
                anchor: Box::new(anchor.clone()),
            },
        );
        let want_level = self.coarse_level;
        let env = ctx.recv_match(|e| {
            matches!(
                &e.msg,
                Msg::CoarseSample { level, .. } if *level == want_level
            ) || matches!(e.msg, Msg::Poison | Msg::Shutdown)
        });
        self.tracer
            .observe(Hist::RequestWait, (self.tracer.now() - wait_start) * 1e6);
        CoarseAcquire::Ready(match env.msg {
            Msg::CoarseSample { sample, .. } => *sample,
            Msg::Shutdown => {
                // let the controller loop observe the shutdown too
                ctx.unrecv(env);
                self.stop.store(true, Ordering::Relaxed);
                poison_sample()
            }
            _ => {
                self.stop.store(true, Ordering::Relaxed);
                poison_sample()
            }
        })
    }

    fn anchor_at(&mut self, theta: &[f64]) -> CoarseSample {
        CoarseSample::plain(
            theta.to_vec(),
            self.coarse_problem.log_density(theta),
            self.coarse_problem.qoi(theta),
        )
    }
}

/// Sentinel sample returned during teardown; its `-∞` density forces a
/// rejection, so the chain state stays valid.
pub(crate) fn poison_sample() -> CoarseSample {
    CoarseSample::plain(Vec::new(), f64::NEG_INFINITY, Vec::new())
}

pub(crate) const ROOT: usize = 0;
pub(crate) const PHONEBOOK: usize = 1;

pub(crate) fn collector_rank(level: usize) -> usize {
    2 + level
}

// ---------------------------------------------------------------------
// roles
// ---------------------------------------------------------------------

pub(crate) fn root_role(
    ctx: &mut RankCtx<Msg>,
    config: &ParallelConfig,
    start: Instant,
    tracer: &Tracer,
    ckpt: Option<&ParallelCheckpoint<'_>>,
    elastic: Option<&ElasticOps<'_>>,
) -> ParallelReport {
    let n_levels = config.n_levels();
    let n_controllers = ctx.size() - config.first_controller_rank();
    let mut done = vec![false; n_levels];
    // checkpoint assembly state (one checkpoint in flight at a time)
    let mut ckpt_active = false;
    let mut ckpt_start = 0.0f64;
    let mut chain_ckpts: Vec<ChainCkpt> = Vec::new();
    let mut coll_ckpts: Vec<CollectorCkpt> = Vec::new();
    // phase 1: wait for all collectors (and drive any in-flight
    // checkpoint to completion — a snapshot cut must never be torn by
    // shutdown, so the loop also spins while `ckpt_active`)
    while done.iter().any(|d| !d) || ckpt_active {
        let env = ctx.recv_match(|e| {
            matches!(
                e.msg,
                Msg::LevelDone { .. }
                    | Msg::CheckpointTick
                    | Msg::ControllerCkpt(_)
                    | Msg::CollectorCkpt(_)
                    | Msg::LedgerCkpt(_)
            )
        });
        match env.msg {
            Msg::LevelDone { level } if !done[level] => {
                done[level] = true;
                // stop production on that level, keep chains serving
                for rank in config.first_controller_rank()..ctx.size() {
                    ctx.send(rank, Msg::StopProducing { level });
                }
                // inform the phonebook (load balancer input)
                ctx.send(PHONEBOOK, Msg::LevelDone { level });
            }
            // start a checkpoint: pause every controller at its next
            // clean boundary. Skipped while one is already running and
            // once every level is done (shutdown is imminent).
            Msg::CheckpointTick if ckpt.is_some() && !ckpt_active && done.iter().any(|d| !d) => {
                ckpt_active = true;
                ckpt_start = tracer.now();
                chain_ckpts.clear();
                coll_ckpts.clear();
                for rank in config.first_controller_rank()..ctx.size() {
                    ctx.send(rank, Msg::Checkpoint);
                }
            }
            Msg::ControllerCkpt(c) => {
                tracer.incr(Counter::BarrierAcks);
                chain_ckpts.push(*c);
                if chain_ckpts.len() == n_controllers && coll_ckpts.len() == n_levels {
                    ctx.send(PHONEBOOK, Msg::Checkpoint);
                }
            }
            Msg::CollectorCkpt(c) => {
                tracer.incr(Counter::BarrierAcks);
                coll_ckpts.push(*c);
                if chain_ckpts.len() == n_controllers && coll_ckpts.len() == n_levels {
                    ctx.send(PHONEBOOK, Msg::Checkpoint);
                }
            }
            Msg::LedgerCkpt(ledger) => {
                tracer.incr(Counter::BarrierAcks);
                // all controllers paused, collectors flushed, ledger
                // drained: assemble the consistent cut and persist it
                let spec = ckpt.expect("ledger checkpoint without a checkpoint spec");
                chain_ckpts.sort_by_key(|c| c.rank);
                coll_ckpts.sort_by_key(|c| (c.level, c.shard));
                let samples_done = coll_ckpts
                    .iter()
                    .filter(|c| c.level == n_levels - 1)
                    .map(|c| c.count)
                    .sum();
                let snapshot = RunSnapshot {
                    backend: Backend::Thread,
                    seed: config.seed,
                    samples_done,
                    chains: std::mem::take(&mut chain_ckpts),
                    collectors: std::mem::take(&mut coll_ckpts),
                    ledger: Some(*ledger),
                    sequential: None,
                };
                let hash = spec
                    .store
                    .put_snapshot(&snapshot, spec.config_hash)
                    .expect("checkpoint: snapshot write failed");
                if let Some(hook) = spec.on_snapshot {
                    hook(samples_done, &hash);
                }
                // elastic membership (net transport): retire and re-host
                // ranks while the barrier still holds every chain paused
                // and the ledger drained — no message can race the move
                let retiring = elastic.map_or_else(Vec::new, |e| (e.plan)(&snapshot));
                if let Some(e) = elastic.filter(|_| !retiring.is_empty()) {
                    for &r in &retiring {
                        ctx.send(r, Msg::Retire);
                    }
                    (e.rehost)(&snapshot, &retiring);
                }
                for rank in config.first_controller_rank()..ctx.size() {
                    // a re-hosted rank resumes unpaused; it needs no Done
                    if !retiring.contains(&rank) {
                        ctx.send(rank, Msg::CheckpointDone);
                    }
                }
                tracer.record(ROOT, SpanKind::Checkpoint, ckpt_start, tracer.now());
                ckpt_active = false;
            }
            _ => {}
        }
    }
    // phase 2: shut the phonebook down first and wait for the ack, so no
    // request can be forwarded to a controller that already exited
    ctx.send(PHONEBOOK, Msg::Shutdown);
    let _ = ctx.recv_match(|e| matches!(e.msg, Msg::PhonebookDown));
    // phase 3: shut everyone else down
    for level in 0..n_levels {
        ctx.send(collector_rank(level), Msg::Shutdown);
    }
    for rank in config.first_controller_rank()..ctx.size() {
        ctx.send(rank, Msg::Shutdown);
    }
    // phase 4: gather reports
    let mut collectors: Vec<Option<CollectorData>> = vec![None; n_levels];
    let mut evals = vec![0usize; n_levels];
    let mut eval_secs = vec![0.0f64; n_levels];
    let mut reassignments = 0usize;
    let mut collector_reports = 0;
    let mut controller_reports = 0;
    while collector_reports < n_levels || controller_reports < n_controllers {
        let env = ctx.recv();
        match env.msg {
            Msg::CollectorReport(data) => {
                let level = data.level;
                collectors[level] = Some(*data);
                collector_reports += 1;
            }
            Msg::ControllerReport {
                evals: e,
                eval_secs: s,
            } => {
                for (acc, v) in evals.iter_mut().zip(&e) {
                    *acc += v;
                }
                for (acc, v) in eval_secs.iter_mut().zip(&s) {
                    *acc += v;
                }
                controller_reports += 1;
            }
            Msg::Reassign { .. } => reassignments += 1, // phonebook's tally
            _ => {}
        }
    }
    let levels = collectors
        .into_iter()
        .enumerate()
        .map(|(level, c)| {
            let c = c.expect("collector report missing");
            ParallelLevelReport {
                level,
                n_samples: c.n_samples,
                mean_correction: c.mean,
                var_correction: c.variance,
                evaluations: evals[level],
                mean_eval_ms: if evals[level] > 0 {
                    eval_secs[level] * 1e3 / evals[level] as f64
                } else {
                    0.0
                },
                theta_samples: c.theta_samples,
                correction_pairs: c.correction_pairs,
            }
        })
        .collect();
    ParallelReport {
        levels,
        elapsed: start.elapsed().as_secs_f64(),
        n_ranks: ctx.size(),
        reassignments,
    }
}

pub(crate) fn phonebook_role(
    ctx: &mut RankCtx<Msg>,
    config: &ParallelConfig,
    tracer: &Tracer,
    resume: Option<&LedgerState>,
) {
    let n_levels = config.n_levels();
    let mut ready: Vec<VecDeque<usize>> = vec![VecDeque::new(); n_levels];
    // queued requests: (requester, its rewind anchor)
    let mut pending: Vec<VecDeque<(usize, Box<CoarseSample>)>> = vec![VecDeque::new(); n_levels];
    let mut ledger =
        resume.map_or_else(LedgerBook::default, |s| LedgerBook::import_state(s.clone()));
    // serves dispatched but not yet written back. A checkpoint's ledger
    // export waits for this to reach zero: by then every outcome a
    // captured chain has already observed is in the ledger too, so the
    // cut is consistent (see DESIGN.md §7).
    let mut in_flight = 0usize;
    let mut ckpt_pending = false;
    let mut level_of: std::collections::HashMap<usize, usize> = (config.first_controller_rank()
        ..config.first_controller_rank() + config.chains_per_level.iter().sum::<usize>())
        .map(|rank| (rank, config.initial_level(rank)))
        .collect();
    let mut done = vec![false; n_levels];
    let mut reassignments = 0usize;
    // inferred per-level sample production intervals (EMA, seconds) used
    // to rate-limit reassignment at the model-runtime timescale
    let mut last_ready_at = vec![f64::NAN; n_levels];
    let mut ema_interval = vec![0.05f64; n_levels];
    let mut last_reassign_at = -f64::INFINITY;
    let epoch = Instant::now();
    loop {
        let env = ctx.recv();
        let now = epoch.elapsed().as_secs_f64();
        // a server became available (initial announce or completed
        // serve): route a queued request first; with no unmet demand
        // anywhere, put the idle capacity to work on an accept-case
        // speculation; otherwise park it for the load balancer
        macro_rules! server_available {
            ($server:expr, $level:expr) => {{
                let level = $level;
                if !last_ready_at[level].is_nan() {
                    let dt = now - last_ready_at[level];
                    ema_interval[level] = 0.8 * ema_interval[level] + 0.2 * dt;
                }
                last_ready_at[level] = now;
                if let Some((reply_to, anchor)) = pending[level].pop_front() {
                    let lease = ledger.lease(config.seed, level, reply_to, *anchor);
                    in_flight += 1;
                    ctx.send(
                        $server,
                        Msg::Serve {
                            reply_to,
                            lease,
                            speculative: false,
                        },
                    );
                } else if config.speculation && pending.iter().all(VecDeque::is_empty) {
                    match ledger.speculative_lease(level) {
                        Some((requester, lease)) => {
                            in_flight += 1;
                            ctx.send(
                                $server,
                                Msg::Serve {
                                    reply_to: requester,
                                    lease,
                                    speculative: true,
                                },
                            );
                        }
                        None => ready[level].push_back($server),
                    }
                } else {
                    ready[level].push_back($server);
                }
            }};
        }
        match env.msg {
            Msg::SampleReady { level } => server_available!(env.from, level),
            Msg::CoarseRequest {
                level,
                reply_to,
                anchor,
            } => {
                if let Some(sample) = ledger.try_commit(reply_to, level, &anchor) {
                    // speculation hit: the serve never touches the
                    // requester's critical path — answer directly
                    ctx.send(
                        reply_to,
                        Msg::CoarseSample {
                            level,
                            sample: Box::new(sample),
                        },
                    );
                    // the commit re-armed the session as a candidate;
                    // pair it with a parked server right away
                    if config.speculation && pending.iter().all(VecDeque::is_empty) {
                        if let Some(server) = ready[level].pop_front() {
                            match ledger.speculative_lease(level) {
                                Some((requester, lease)) => {
                                    in_flight += 1;
                                    ctx.send(
                                        server,
                                        Msg::Serve {
                                            reply_to: requester,
                                            lease,
                                            speculative: true,
                                        },
                                    );
                                }
                                None => ready[level].push_front(server),
                            }
                        }
                    }
                } else if let Some(server) = ready[level].pop_front() {
                    let lease = ledger.lease(config.seed, level, reply_to, *anchor);
                    in_flight += 1;
                    ctx.send(
                        server,
                        Msg::Serve {
                            reply_to,
                            lease,
                            speculative: false,
                        },
                    );
                } else {
                    pending[level].push_back((reply_to, anchor));
                }
            }
            Msg::ServeDone {
                requester,
                level,
                session,
                serves,
                outcome,
                speculative,
            } => {
                in_flight -= 1;
                tracer.incr(Counter::WriteBacks);
                if speculative {
                    ledger.store_speculation(requester, level, session, serves, *outcome);
                } else {
                    ledger.write_back(requester, level, session, serves, &outcome);
                }
                server_available!(env.from, level);
                // quiesce: controllers are all paused, so re-dispatches
                // above can only be speculations, which deplete (each
                // parks its session; nothing re-arms candidates while
                // requesters are paused) — `in_flight` reaches zero.
                if ckpt_pending && in_flight == 0 {
                    ckpt_pending = false;
                    debug_assert!(pending.iter().all(VecDeque::is_empty));
                    ctx.send(ROOT, Msg::LedgerCkpt(Box::new(ledger.export_state())));
                }
            }
            Msg::Checkpoint => {
                // sent by the root only after every controller acked its
                // pause, so no new real requests can arrive; export as
                // soon as the dispatched serves have drained
                if in_flight == 0 {
                    debug_assert!(pending.iter().all(VecDeque::is_empty));
                    ctx.send(ROOT, Msg::LedgerCkpt(Box::new(ledger.export_state())));
                } else {
                    ckpt_pending = true;
                }
            }
            Msg::LevelDone { level } => done[level] = true,
            Msg::Shutdown => {
                // no more forwards: poison every queued request, ack, exit
                for queue in &mut pending {
                    for (reply_to, _) in queue.drain(..) {
                        ctx.send(reply_to, Msg::Poison);
                    }
                }
                ctx.send(ROOT, Msg::PhonebookDown);
                return;
            }
            _ => {}
        }
        // ------- dynamic load balancing (Section 4.3) -------
        if !config.load_balancing {
            continue;
        }
        // starved level: queued requests nobody is ready to serve
        let Some(starved) = (0..n_levels).find(|&l| !pending[l].is_empty()) else {
            continue;
        };
        // donor: a level with an idle ready chain that is either finished
        // or over-provisioned (≥ 2 idle chains), keeping at least one
        // chain per level that finer levels still depend on
        let donor_level = (0..n_levels).filter(|&m| m != starved).find(|&m| {
            let idle = ready[m].len();
            let group_count = level_of.values().filter(|&&l| l == m).count();
            let still_needed = (m + 1..n_levels).any(|f| !done[f]) || !done[m];
            if done[m] && pending[m].is_empty() {
                idle >= 1 && (!still_needed || group_count >= 2)
            } else {
                idle >= 2 && group_count >= 2
            }
        });
        let Some(donor_level) = donor_level else {
            continue;
        };
        // rate-limit at the timescale of the slower level's evaluations
        let cooldown = ema_interval[starved].max(ema_interval[donor_level]) * 2.0;
        if now - last_reassign_at < cooldown {
            continue;
        }
        if let Some(rank) = ready[donor_level].pop_front() {
            level_of.insert(rank, starved);
            // the reassigned chain restarts from scratch: its ledger
            // sessions (as a requester) are stale, drop them
            ledger.forget_requester(rank);
            ctx.send(rank, Msg::Reassign { level: starved });
            // tell root so the final report counts reassignments
            ctx.send(ROOT, Msg::Reassign { level: starved });
            tracer.mark(
                rank,
                SpanKind::Reassign {
                    from: donor_level,
                    to: starved,
                },
            );
            reassignments += 1;
            let _ = reassignments;
            last_reassign_at = now;
        }
    }
}

pub(crate) fn collector_role(
    ctx: &mut RankCtx<Msg>,
    level: usize,
    config: &ParallelConfig,
    ckpt_every: usize,
    resume: Option<&CollectorCkpt>,
) {
    let target = config.samples_per_level[level];
    // the top-level collector paces checkpoints: every `ckpt_every`
    // recorded corrections it ticks the root
    let ticker = ckpt_every > 0 && level + 1 == config.n_levels();
    let mut moments: Option<VectorMoments> = resume
        .and_then(|r| r.moments.as_deref())
        .map(VectorMoments::from_parts);
    let mut count = resume.map_or(0, |r| r.count);
    let mut theta_samples = resume.map(|r| r.theta_samples.clone()).unwrap_or_default();
    let mut correction_pairs = resume
        .map(|r| r.correction_pairs.clone())
        .unwrap_or_default();
    // checkpoint-flush markers seen since the last capture
    let mut flushes = 0usize;
    let mut done_sent = count >= target;
    if done_sent {
        ctx.send(ROOT, Msg::LevelDone { level });
    }
    loop {
        let env = ctx.recv();
        match env.msg {
            Msg::Correction {
                level: l,
                y,
                theta,
                fine_qoi,
                coarse_qoi,
            } if l == level && count < target => {
                moments
                    .get_or_insert_with(|| VectorMoments::new(y.len()))
                    .push(&y);
                count += 1;
                if config.record_samples {
                    theta_samples.push(theta);
                    if let Some(cq) = coarse_qoi {
                        correction_pairs.push((cq, fine_qoi));
                    }
                }
                if count == target && !done_sent {
                    done_sent = true;
                    ctx.send(ROOT, Msg::LevelDone { level });
                } else if ticker && count.is_multiple_of(ckpt_every) {
                    ctx.send(ROOT, Msg::CheckpointTick);
                }
            }
            Msg::CheckpointFlush => {
                // one marker per chain on this level, each sent after
                // that chain's last pre-pause Correction (FIFO per
                // destination): once all arrive, this collector's state
                // is consistent with every captured chain
                flushes += 1;
                if flushes == config.chains_per_level[level] {
                    flushes = 0;
                    ctx.send(
                        ROOT,
                        Msg::CollectorCkpt(Box::new(CollectorCkpt {
                            level,
                            shard: 0,
                            count,
                            moments: moments.as_ref().map(VectorMoments::parts),
                            theta_samples: theta_samples.clone(),
                            correction_pairs: correction_pairs.clone(),
                        })),
                    );
                }
            }
            Msg::Shutdown => {
                let (mean, variance) = match &moments {
                    Some(m) => (m.mean(), m.variance()),
                    None => (Vec::new(), Vec::new()),
                };
                ctx.send(
                    ROOT,
                    Msg::CollectorReport(Box::new(CollectorData {
                        level,
                        n_samples: count,
                        mean,
                        variance,
                        theta_samples,
                        correction_pairs,
                    })),
                );
                return;
            }
            _ => {}
        }
    }
}

/// Everything a controller needs to (re)build its chain on a level.
struct ControllerHarness<'a> {
    factory: &'a dyn LevelFactory,
    shared: SharedCtx,
    rank: usize,
    stop: Arc<AtomicBool>,
    counters: Vec<EvalCounter>,
    tracer: Tracer,
}

impl ControllerHarness<'_> {
    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(CountingProblem::new(
            self.factory.problem(level),
            self.counters[level].clone(),
        ))
    }

    fn build_chain(&self, level: usize) -> MlChain {
        if level == 0 {
            MlChain::base(
                self.problem(0),
                self.factory.proposal(0),
                self.factory.starting_point(0),
            )
        } else {
            let coarse_dim = self.factory.starting_point(level - 1).len();
            let mut theta0 = self.factory.starting_point(level);
            theta0[..coarse_dim].copy_from_slice(&self.factory.starting_point(level - 1));
            let source = RemoteCoarseSource {
                coarse_level: level - 1,
                ctx: Arc::clone(&self.shared),
                my_rank: self.rank,
                stop: Arc::clone(&self.stop),
                coarse_problem: self.problem(level - 1),
                tracer: self.tracer.clone(),
            };
            MlChain::coupled(
                level,
                self.problem(level),
                Box::new(source),
                self.factory.proposal(level),
                coarse_dim,
                theta0,
            )
        }
    }
}

/// Returns `Some(ctx)` only when the rank was told to [`Msg::Retire`]
/// at a held checkpoint barrier: the net transport takes the channel
/// back (with anything still queued in it) and re-hosts the rank
/// elsewhere from the barrier snapshot.
#[allow(clippy::too_many_lines)]
pub(crate) fn controller_role(
    ctx: RankCtx<Msg>,
    factory: &dyn LevelFactory,
    config: &ParallelConfig,
    tracer: &Tracer,
    initial_level: usize,
    resume: Option<&ChainCkpt>,
) -> Option<RankCtx<Msg>> {
    let rank = ctx.rank();
    let n_levels = config.n_levels();
    let shared: SharedCtx = Arc::new(parking_lot::Mutex::new(ctx));
    let stop = Arc::new(AtomicBool::new(false));
    let harness = ControllerHarness {
        factory,
        shared: Arc::clone(&shared),
        rank,
        stop: Arc::clone(&stop),
        counters: (0..n_levels).map(|_| EvalCounter::new()).collect(),
        tracer: tracer.clone(),
    };
    let mut rng = resume.map_or_else(
        || StdRng::seed_from_u64(controller_seed(config.seed, rank)),
        |r| StdRng::from_state(r.rng),
    );
    let mut done_levels = resume.map_or_else(|| vec![false; n_levels], |r| r.done_levels.clone());
    // chain state to restore on the first level entry (resume skips
    // burn-in: thread-backend checkpoints only happen past it)
    let mut resume_chain = resume.map(|r| r.chain.clone());
    let mut resume_producing = resume.map(|r| r.producing);
    let mut retired = false;

    'levels: loop {
        // (re)build on the current level
        let level = {
            // the level may have been changed by a Reassign handled below
            LEVEL.with(|l| l.get()).unwrap_or(initial_level)
        };
        let mut chain = harness.build_chain(level);
        if let Some(state) = resume_chain.take() {
            chain.import_state(state);
        } else {
            // burn-in (Fig. 9's yellow span)
            let burn_start = tracer.now();
            for _ in 0..config.burn_in[level] {
                chain.step(&mut rng);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            tracer.record(rank, SpanKind::Burnin { level }, burn_start, tracer.now());
        }

        let rho = factory.subsampling_rate(level).max(1);
        let is_top = level + 1 >= n_levels;
        let mut producing = resume_producing.take().unwrap_or(!done_levels[level]);
        let mut paused = false;
        let mut pause_start = 0.0f64;
        let mut pending_serves: VecDeque<(usize, Box<LedgerLease>, bool)> = VecDeque::new();
        let mut announced = false;

        loop {
            if stop.load(Ordering::Relaxed) {
                break 'levels;
            }
            // handle everything already queued, without blocking
            loop {
                let env = {
                    let mut c = shared.lock();
                    c.try_recv()
                };
                let Some(env) = env else { break };
                match env.msg {
                    Msg::Serve {
                        reply_to,
                        lease,
                        speculative,
                    } => pending_serves.push_back((reply_to, lease, speculative)),
                    Msg::StopProducing { level: l } => {
                        done_levels[l] = true;
                        if l == level {
                            producing = false;
                        }
                    }
                    Msg::Reassign { level: new_level } => {
                        // abandon this chain, rebuild on the new level
                        LEVEL.with(|l| l.set(Some(new_level)));
                        // poison anyone we promised to serve — but never
                        // the target of a speculative serve, who never
                        // asked and may be waiting on a real serve from
                        // someone else
                        let c = shared.lock();
                        for (reply_to, _, speculative) in pending_serves.drain(..) {
                            if !speculative {
                                c.send(reply_to, Msg::Poison);
                            }
                        }
                        drop(c);
                        continue 'levels;
                    }
                    Msg::Shutdown => {
                        stop.store(true, Ordering::Relaxed);
                    }
                    Msg::Checkpoint => {
                        // this drain point is a clean boundary: the last
                        // own step (including every coarse request it
                        // made) has completed and the rng sits between
                        // draws. Flush the collector (FIFO marker after
                        // our last Correction), ship the captured state,
                        // pause own stepping — serving continues below.
                        let c = shared.lock();
                        c.send(collector_rank(level), Msg::CheckpointFlush);
                        c.send(
                            ROOT,
                            Msg::ControllerCkpt(Box::new(ChainCkpt {
                                rank,
                                level,
                                burnin_left: 0,
                                producing,
                                done_levels: done_levels.clone(),
                                shard_rr: 0,
                                rng: rng.state(),
                                chain: chain.export_state(),
                            })),
                        );
                        drop(c);
                        paused = true;
                        pause_start = tracer.now();
                    }
                    Msg::CheckpointDone => {
                        if paused {
                            tracer.record(rank, SpanKind::Quiesce, pause_start, tracer.now());
                        }
                        paused = false;
                    }
                    Msg::Retire => {
                        // only ever sent while a barrier holds: our state
                        // is already in the snapshot and no serve can be
                        // in flight toward us
                        debug_assert!(paused, "Retire outside a checkpoint barrier");
                        debug_assert!(pending_serves.is_empty(), "Retire with pending serves");
                        retired = true;
                    }
                    _ => {}
                }
            }
            if retired {
                break 'levels;
            }
            if stop.load(Ordering::Relaxed) {
                break 'levels;
            }

            // a requester is suspended on every queued real serve:
            // execute the ledger serves before advancing our own chain.
            // The serve rewinds/continues the requester's session on this
            // chain and restores our own trajectory afterwards (cached
            // values only, no forward-model evaluations for the restores
            // themselves). A speculative serve runs identically — same
            // pure function of the lease — but its outcome travels only
            // to the phonebook's speculation store.
            if let Some((reply_to, lease, speculative)) = pending_serves.pop_front() {
                let snapshot = chain.current_as_sample();
                let serve_start = tracer.now();
                let out = ledger::serve(&mut chain, rho, &lease);
                let kind = if speculative {
                    SpanKind::Speculate { level }
                } else {
                    SpanKind::Serve { level }
                };
                tracer.record(rank, kind, serve_start, tracer.now());
                tracer.incr(Counter::Serves);
                chain.restore(&snapshot);
                let c = shared.lock();
                // one batched message: write-back (or speculative
                // outcome) + availability re-announce. It MUST be sent
                // before the requester's proposal: program order plus
                // per-destination FIFO then guarantee the phonebook
                // applies the write-back before the requester's next
                // request can arrive, so a session never serves the same
                // stream position twice (the no-replay invariant the
                // speculation commit check relies on).
                let proposal = (!speculative).then(|| out.proposal.clone());
                c.send(
                    PHONEBOOK,
                    Msg::ServeDone {
                        requester: reply_to,
                        level,
                        session: lease.session_seed,
                        serves: lease.serves + 1,
                        outcome: Box::new(out),
                        speculative,
                    },
                );
                if let Some(proposal) = proposal {
                    c.send(
                        reply_to,
                        Msg::CoarseSample {
                            level,
                            sample: Box::new(proposal),
                        },
                    );
                }
                drop(c);
                announced = true;
                continue;
            }

            if !announced && !is_top {
                // announce serve availability (ρ is enforced inside the
                // ledger serve, so no own-chain stride gating is needed)
                let c = shared.lock();
                c.send(PHONEBOOK, Msg::SampleReady { level });
                drop(c);
                announced = true;
            }

            if producing && !paused {
                let eval_start = tracer.now();
                chain.step(&mut rng);
                tracer.record(rank, SpanKind::Eval { level }, eval_start, tracer.now());
                if stop.load(Ordering::Relaxed) {
                    break 'levels;
                }
                let correction =
                    Msg::correction(level, &chain, config.pairing, config.record_samples);
                shared.lock().send(collector_rank(level), correction);
            } else {
                // idle: block for the next message (handled next iteration)
                let env = {
                    let mut c = shared.lock();
                    c.recv()
                };
                let mut c = shared.lock();
                c.unrecv(env);
            }
        }
    }

    if retired {
        // being re-hosted, not shut down: no poisons, no report (the
        // re-hosted instance reports at shutdown) — hand the channel
        // back to the transport with whatever is still queued in it
        drop(harness);
        return Arc::try_unwrap(shared)
            .ok()
            .map(parking_lot::Mutex::into_inner);
    }

    // teardown: poison outstanding real serve requests (speculative
    // targets never asked — dropping theirs is silent), then report
    let mut c = shared.lock();
    for env in c.drain() {
        if let Msg::Serve {
            reply_to,
            speculative: false,
            ..
        } = env.msg
        {
            c.send(reply_to, Msg::Poison);
        }
    }
    let evals: Vec<usize> = harness
        .counters
        .iter()
        .map(EvalCounter::evaluations)
        .collect();
    let eval_secs: Vec<f64> = harness
        .counters
        .iter()
        .map(EvalCounter::total_secs)
        .collect();
    c.send(ROOT, Msg::ControllerReport { evals, eval_secs });
    None
}

thread_local! {
    /// Level override set by a `Reassign` (thread-local because each
    /// controller owns exactly one thread).
    pub(crate) static LEVEL: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Run parallel MLMCMC over the factory's hierarchy.
///
/// Spawns `config.n_ranks()` rank threads (root, phonebook, collectors,
/// controllers), executes the full schedule and returns the assembled
/// report. `tracer` may be [`Tracer::disabled`].
pub fn run_parallel(
    factory: &dyn LevelFactory,
    config: &ParallelConfig,
    tracer: &Tracer,
) -> ParallelReport {
    run_parallel_ckpt(factory, config, tracer, None, None)
}

/// [`run_parallel`] with durable-run support: periodically persist
/// consistent-cut snapshots to `checkpoint`'s run store and/or resume a
/// run from a previously captured [`RunSnapshot`].
///
/// Both require `config.load_balancing == false` — the snapshot pins
/// each chain to a level, so the assignment must be static. A resumed
/// run continues bit-identically: every chain restores its exact kernel
/// state and RNG stream position, collectors restore their accumulators
/// and the phonebook re-imports the full rewind ledger.
pub fn run_parallel_ckpt(
    factory: &dyn LevelFactory,
    config: &ParallelConfig,
    tracer: &Tracer,
    checkpoint: Option<&ParallelCheckpoint<'_>>,
    resume: Option<&RunSnapshot>,
) -> ParallelReport {
    assert!(
        config.n_levels() <= factory.n_levels(),
        "run_parallel: more levels configured than the factory provides"
    );
    assert!(
        config.chains_per_level.iter().all(|&c| c >= 1),
        "run_parallel: every level needs at least one chain"
    );
    if checkpoint.is_some() || resume.is_some() {
        assert!(
            !config.load_balancing,
            "run_parallel: checkpoint/resume requires load_balancing = false \
             (snapshots pin each chain to a level)"
        );
    }
    let n_controllers = config.n_ranks() - config.first_controller_rank();
    if let Some(snap) = resume {
        assert!(
            matches!(snap.backend, Backend::Thread),
            "run_parallel: snapshot was taken by the {} backend",
            snap.backend
        );
        assert_eq!(
            snap.seed, config.seed,
            "run_parallel: snapshot seed mismatch"
        );
        assert_eq!(
            snap.chains.len(),
            n_controllers,
            "run_parallel: snapshot chain count mismatch"
        );
        assert_eq!(
            snap.collectors.len(),
            config.n_levels(),
            "run_parallel: snapshot collector count mismatch"
        );
        for (i, c) in snap.chains.iter().enumerate() {
            assert_eq!(
                c.rank,
                config.first_controller_rank() + i,
                "run_parallel: snapshot chain ranks inconsistent"
            );
        }
    }
    let start = Instant::now();
    let results = Universe::run(config.n_ranks(), |mut ctx: RankCtx<Msg>| {
        let rank = ctx.rank();
        if rank == ROOT {
            Some(root_role(&mut ctx, config, start, tracer, checkpoint, None))
        } else if rank == PHONEBOOK {
            phonebook_role(
                &mut ctx,
                config,
                tracer,
                resume.and_then(|s| s.ledger.as_ref()),
            );
            None
        } else if rank < config.first_controller_rank() {
            let level = rank - 2;
            collector_role(
                &mut ctx,
                level,
                config,
                checkpoint.map_or(0, |c| c.every),
                resume.map(|s| &s.collectors[level]),
            );
            None
        } else {
            LEVEL.with(|l| l.set(None));
            let chain_ckpt = resume.map(|s| &s.chains[rank - config.first_controller_rank()]);
            let level = chain_ckpt.map_or_else(|| config.initial_level(rank), |c| c.level);
            // no elastic membership in-process: never retires
            let _ = controller_role(ctx, factory, config, tracer, level, chain_ckpt);
            None
        }
    });
    results
        .into_iter()
        .flatten()
        .next()
        .expect("root must produce a report")
}

#[cfg(test)]
mod tests {
    use super::*;
    use uq_linalg::prob::isotropic_gaussian_logpdf;
    use uq_mcmc::proposal::GaussianRandomWalk;
    use uq_mcmc::Proposal;

    /// Analytic Gaussian hierarchy (same targets as the core test suite).
    struct GaussianHierarchy {
        means: Vec<f64>,
        sds: Vec<f64>,
    }

    impl GaussianHierarchy {
        fn three_level() -> Self {
            Self {
                means: vec![0.6, 0.9, 1.0],
                sds: vec![0.65, 0.55, 0.5],
            }
        }
    }

    struct Target {
        mean: f64,
        sd: f64,
    }

    impl SamplingProblem for Target {
        fn dim(&self) -> usize {
            1
        }
        fn log_density(&mut self, theta: &[f64]) -> f64 {
            isotropic_gaussian_logpdf(theta, &[self.mean], self.sd)
        }
    }

    impl LevelFactory for GaussianHierarchy {
        fn n_levels(&self) -> usize {
            self.means.len()
        }
        fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
            Box::new(Target {
                mean: self.means[level],
                sd: self.sds[level],
            })
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
    fn two_level_parallel_run_completes() {
        let h = GaussianHierarchy {
            means: vec![0.5, 1.0],
            sds: vec![0.6, 0.5],
        };
        let config = ParallelConfig::new(vec![2000, 800], vec![1, 1]);
        let report = run_parallel(&h, &config, &Tracer::disabled());
        assert_eq!(report.levels[0].n_samples, 2000);
        assert_eq!(report.levels[1].n_samples, 800);
        assert!(report.total_evaluations() >= 2800);
    }

    #[test]
    fn three_level_estimate_matches_truth() {
        let h = GaussianHierarchy::three_level();
        let mut config = ParallelConfig::new(vec![30_000, 4_000, 1_500], vec![2, 2, 1]);
        config.burn_in = vec![300, 100, 50];
        let report = run_parallel(&h, &config, &Tracer::disabled());
        let est = report.expectation()[0];
        assert!(
            (est - 1.0).abs() < 0.08,
            "parallel telescoping estimate {est}"
        );
        // correction means per level
        assert!((report.levels[0].mean_correction[0] - 0.6).abs() < 0.08);
        assert!((report.levels[1].mean_correction[0] - 0.3).abs() < 0.1);
    }

    #[test]
    fn load_balancer_disabled_still_completes() {
        let h = GaussianHierarchy::three_level();
        let mut config = ParallelConfig::new(vec![3000, 600, 200], vec![1, 1, 1]);
        config.load_balancing = false;
        let report = run_parallel(&h, &config, &Tracer::disabled());
        assert_eq!(report.reassignments, 0);
        assert_eq!(report.levels[2].n_samples, 200);
    }

    #[test]
    fn recording_returns_samples_and_pairs() {
        let h = GaussianHierarchy::three_level();
        let mut config = ParallelConfig::new(vec![400, 150, 60], vec![1, 1, 1]);
        config.record_samples = true;
        let report = run_parallel(&h, &config, &Tracer::disabled());
        assert_eq!(report.levels[0].theta_samples.len(), 400);
        assert_eq!(report.levels[1].correction_pairs.len(), 150);
        assert!(report.levels[0].correction_pairs.is_empty());
        // accepted coarse proposals appear as identical pairs
        let identical = report.levels[1]
            .correction_pairs
            .iter()
            .filter(|(c, f)| c == f)
            .count();
        assert!(identical > 0);
    }

    #[test]
    fn tracer_captures_burnin_and_evals() {
        let h = GaussianHierarchy::three_level();
        let mut config = ParallelConfig::new(vec![300, 100, 40], vec![1, 1, 1]);
        config.burn_in = vec![50, 20, 10];
        let tracer = Tracer::new();
        let _ = run_parallel(&h, &config, &tracer);
        let events = tracer.events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, SpanKind::Burnin { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, SpanKind::Eval { .. })));
    }

    /// Bit-level equality of everything deterministic in a report
    /// (evaluation counts are excluded: a resumed run rebuilds its
    /// chains, so wall-clock/eval bookkeeping legitimately differs).
    fn assert_reports_identical(a: &ParallelReport, b: &ParallelReport) {
        assert_eq!(a.levels.len(), b.levels.len());
        for (la, lb) in a.levels.iter().zip(&b.levels) {
            assert_eq!(la.n_samples, lb.n_samples);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&la.mean_correction), bits(&lb.mean_correction));
            assert_eq!(bits(&la.var_correction), bits(&lb.var_correction));
            assert_eq!(la.theta_samples, lb.theta_samples);
            assert_eq!(la.correction_pairs, lb.correction_pairs);
        }
    }

    #[test]
    fn thread_resume_from_every_snapshot_is_bit_identical() {
        use std::sync::Mutex;
        use uq_mlmcmc::store::RunStore;

        // two levels: the serving chains are base chains, so serve legs
        // make no nested coarse requests and every ledger session sees a
        // deterministic request order — the regime where the thread
        // backend is bit-reproducible (three-level thread runs
        // interleave own-step and serve-leg requests on mid-level
        // sessions nondeterministically; see DESIGN.md §7)
        let h = GaussianHierarchy {
            means: vec![0.5, 1.0],
            sds: vec![0.6, 0.5],
        };
        let mut config = ParallelConfig::new(vec![300, 120], vec![1, 1]);
        config.burn_in = vec![30, 20];
        config.load_balancing = false;
        config.record_samples = true;
        let baseline = run_parallel(&h, &config, &Tracer::disabled());
        let baseline2 = run_parallel(&h, &config, &Tracer::disabled());
        assert_reports_identical(&baseline, &baseline2);

        let dir = std::env::temp_dir().join(format!("uq-thread-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).unwrap();
        let hashes: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let hook = |_done: usize, hash: &str| hashes.lock().unwrap().push(hash.to_string());
        let spec = ParallelCheckpoint {
            store: &store,
            config_hash: 99,
            every: 7,
            on_snapshot: Some(&hook),
            stop: None,
        };
        let checkpointed = run_parallel_ckpt(&h, &config, &Tracer::disabled(), Some(&spec), None);
        // checkpointing itself must not perturb the run
        assert_reports_identical(&baseline, &checkpointed);

        let hashes = hashes.into_inner().unwrap();
        assert!(
            hashes.len() >= 3,
            "expected several snapshots, got {}",
            hashes.len()
        );
        for hash in &hashes {
            let (snap, cfg) = store.get_snapshot(hash).unwrap();
            assert_eq!(cfg, 99);
            let resumed = run_parallel_ckpt(&h, &config, &Tracer::disabled(), None, Some(&snap));
            assert_reports_identical(&baseline, &resumed);
        }
        let _ = std::fs::remove_dir_all(&dir);
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
