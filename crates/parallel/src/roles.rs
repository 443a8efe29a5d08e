//! The MLMCMC role protocols (paper Fig. 8): the scheduling policy —
//! root, phonebook, collectors, controllers — written **once**, as
//! suspendable state machines, and the **front door** to them: a [`Run`]
//! says what to run, a [`Placement`] where — live on a worker pool
//! ([`crate::runtime`]; paper-scale rank counts fit a few cores), on that
//! pool plus the worker processes of a [`crate::net`] driver, or on one
//! thread in seeded virtual time ([`crate::sim`]) — and [`Run::on`] is
//! the one function that turns the two into a [`RuntimeReport`].
//! The placement is never a statistical actor: on a deterministic
//! configuration every one produces the same digest, and every one cuts
//! the same snapshot — one stamp, resumable under any placement whose
//! rank layout it fits ([`Run::new`] is the ladder).
//!
//! * **Suspendable controllers.** Every coupled step suspends at
//!   `StepOutcome::NeedCoarse`; the controller sends the `CoarseRequest`
//!   itself, returns a wait predicate and finishes the step via
//!   `MlChain::resume_step` when the sample arrives. A ledger serve
//!   suspends the same way: the controller drives
//!   a [`ledger::Serve`] one kernel step per poll — the serve the
//!   sequential `ChainStack` drives to the end. No OS thread blocks on a
//!   chain's behalf.
//! * **Batched phonebook routing.** The phonebook drains *every* queued
//!   message per wakeup and routes the whole batch in one pass; batch
//!   sizes are reported in [`PhonebookStats`] (`scaling_live`'s
//!   `mean batch` / `max batch` columns).
//! * **One collector per level.** Every run has one rank layout — root,
//!   phonebook, one collector per level, then the controllers
//!   ([`ParallelConfig::n_ranks`]). A level's collector keeps the first
//!   `N_l` corrections its controllers send it, and its state is what a
//!   barrier cuts and what the root reports.

use crate::obs::{Counter, Hist, SpanKind, Tracer};
use crate::runtime::{Envelope, Poll, Runtime, RuntimeStats, VCtx, VirtualRank};
use crate::scheduler::{
    controller_seed, Msg, ParallelCheckpoint, ParallelConfig, ParallelLevelReport, ParallelReport,
    PHONEBOOK, ROOT,
};
use crate::sim::{Meter, Sim, SimError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;
use uq_mcmc::problem::GaussianTarget;
use uq_mcmc::proposal::GaussianRandomWalk;
use uq_mcmc::stats::VectorMoments;
use uq_mcmc::{Proposal, SamplingProblem};
use uq_mlmcmc::counting::{EvalCounter, EvalHook, Hooked};
use uq_mlmcmc::coupled::{build_chain, Bookmark, CoarseSample, MlChain, StepOutcome};
use uq_mlmcmc::ledger::{self, LedgerBook, LedgerLease, LedgerStats, ServeStep};
use uq_mlmcmc::store::{ChainCkpt, CollectorCkpt, RunSnapshot};
use uq_mlmcmc::LevelFactory;

/// Configuration of a run: the policy inputs ([`ParallelConfig`]), which
/// also fix its rank layout.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// The scheduling policy inputs (targets, burn-in, chains, seed, …).
    pub base: ParallelConfig,
    /// Pool width of the [`run_runtime`] compatibility alias and, in a
    /// service `JobSpec`, the workers a job asks for (its demand in the
    /// fair-share split; it travels in the service wire codec). No run
    /// reads it: a [`Placement`] names its pool, whose width wins — a
    /// lane runs the job on the share it was given.
    pub n_workers: usize,
    /// Always 1: every level has one collector. The field remains only
    /// because the frozen `benchmark/` builds this struct as a literal
    /// (ROADMAP item 7(d) deletes it with `n_workers`); [`Run::new`]
    /// asserts it and the service refuses a job with any other value.
    pub collector_shards: usize,
}

impl RuntimeConfig {
    pub fn new(samples_per_level: Vec<usize>, chains_per_level: Vec<usize>) -> Self {
        Self {
            base: ParallelConfig::new(samples_per_level, chains_per_level),
            n_workers: 4,
            collector_shards: 1,
        }
    }

    pub fn n_levels(&self) -> usize {
        self.base.n_levels()
    }
}

/// Phonebook routing/batching statistics (the perf signature of batched
/// routing: messages handled per wakeup).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhonebookStats {
    /// Wakeups that processed at least one message.
    pub wakeups: usize,
    /// Total messages processed.
    pub messages: usize,
    /// Largest batch drained in a single wakeup.
    pub max_batch: usize,
    /// Coarse-proposal handoffs routed (`Serve` forwards).
    pub routed: usize,
    /// Load-balancer reassignments issued.
    pub reassignments: usize,
    /// Rewind-ledger session statistics (sessions opened, serves,
    /// diverged pairing legs).
    pub ledger: LedgerStats,
}

impl PhonebookStats {
    /// Mean messages per wakeup.
    pub fn mean_batch(&self) -> f64 {
        if self.wakeups == 0 {
            0.0
        } else {
            self.messages as f64 / self.wakeups as f64
        }
    }
}

/// Results of a run, whatever its [`Placement`]; what only one executor
/// can say is an `Option`.
#[derive(Clone, Debug)]
pub struct RuntimeReport {
    /// The assembled estimator report. `elapsed` is wall-clock seconds
    /// live and, in virtual time, the root's clock at exit: the makespan
    /// on one processor per rank.
    pub report: ParallelReport,
    pub phonebook: PhonebookStats,
    /// Executor counters (polls, wakeups, dropped shutdown sends — over a
    /// socket those of the driver process, its transport's included).
    pub runtime: RuntimeStats,
    /// The run was stopped by [`ParallelCheckpoint::stop`] at a quiesce
    /// barrier: `report` carries the partial moments up to the cut and
    /// the just-persisted snapshot is the resume point.
    pub preempted: bool,
    /// [`Placement::Net`]: ranks whose host changed at a membership
    /// change (a leaver's come home, a joiner's go out).
    pub migrations: Option<u64>,
    /// [`Placement::Sim`]: virtual seconds of model evaluation charged,
    /// by level — the counterpart of the live tracer's per-level activity
    /// split (`scaling_live` compares the two level by level).
    pub busy_per_level: Option<Vec<f64>>,
    /// [`Placement::Sim`]: every rank's virtual clock at its exit, by rank.
    pub clocks: Option<Vec<f64>>,
    /// [`Placement::Sim`]: virtual time of the first message that reached
    /// nobody (sent to an exited rank, or still unread when its rank
    /// exited), if there was one.
    pub first_drop: Option<f64>,
}

impl RuntimeReport {
    /// The report of a live run from what its machines exited with.
    pub(crate) fn assemble(outs: Vec<RoleOut>, runtime: RuntimeStats) -> Self {
        let root = outs.into_iter().find_map(|out| match out {
            RoleOut::Root(boxed) => Some(*boxed),
            RoleOut::Quiet => None,
        });
        let (report, phonebook, preempted) = root.expect("root must produce a report");
        Self {
            report,
            phonebook,
            runtime,
            preempted,
            migrations: None,
            busy_per_level: None,
            clocks: None,
            first_drop: None,
        }
    }
}

/// What a role machine exits with.
pub(crate) enum RoleOut {
    /// The root's `(report, phonebook stats, preempted)`.
    Root(Box<(ParallelReport, PhonebookStats, bool)>),
    Quiet,
}

// ---------------------------------------------------------------------
// root
// ---------------------------------------------------------------------

enum RootPhase {
    /// Waiting for every level's collector.
    Levels,
    /// Phonebook shutdown handshake.
    Phonebook,
    /// Gathering collector/controller reports.
    Gather,
}

pub(crate) struct RootRank<'a> {
    config: &'a RuntimeConfig,
    phase: RootPhase,
    level_done: Vec<bool>,
    phonebook_stats: PhonebookStats,
    /// Each level's collector report, in its level's slot.
    collectors: Vec<Option<CollectorCkpt>>,
    controller_reports: usize,
    evals: Vec<usize>,
    eval_secs: Vec<f64>,
    /// Checkpoint policy (None disables the quiesce protocol).
    ckpt: Option<&'a ParallelCheckpoint<'a>>,
    /// A checkpoint is in flight (at most one at a time; shutdown waits
    /// for it so a snapshot cut is never torn).
    ckpt_active: bool,
    /// Progress ticks not yet cut: a tick that meets an active barrier
    /// starts the next one when it closes, so every tick is one cut.
    ticks: usize,
    ckpt_start: f64,
    chain_ckpts: Vec<ChainCkpt>,
    coll_ckpts: Vec<CollectorCkpt>,
    /// Set when [`ParallelCheckpoint::stop`] fired at a barrier.
    preempted: bool,
    tracer: Tracer,
}

impl<'a> RootRank<'a> {
    pub(crate) fn new(
        config: &'a RuntimeConfig,
        tracer: &Tracer,
        ckpt: Option<&'a ParallelCheckpoint<'a>>,
    ) -> Self {
        let n_levels = config.n_levels();
        Self {
            config,
            tracer: tracer.clone(),
            phase: RootPhase::Levels,
            level_done: vec![false; n_levels],
            phonebook_stats: PhonebookStats::default(),
            collectors: vec![None; n_levels],
            controller_reports: 0,
            evals: vec![0; n_levels],
            eval_secs: vec![0.0; n_levels],
            ckpt,
            ckpt_active: false,
            ticks: 0,
            ckpt_start: 0.0,
            chain_ckpts: Vec::new(),
            coll_ckpts: Vec::new(),
            preempted: false,
        }
    }

    /// Open a barrier: every controller pauses at its next clean step
    /// boundary and reports its state.
    fn start_checkpoint(&mut self, ctx: &VCtx<'_, Msg>) {
        self.ckpt_active = true;
        self.ckpt_start = self.tracer.now();
        self.chain_ckpts.clear();
        self.coll_ckpts.clear();
        let layout = &self.config.base;
        for rank in layout.first_controller_rank()..layout.n_ranks() {
            ctx.send(rank, Msg::Checkpoint);
        }
    }

    /// Once every controller acked its pause and every collector
    /// flushed, ask the phonebook for the ledger export (the final piece
    /// of the cut).
    fn maybe_request_ledger(&self, ctx: &VCtx<'_, Msg>) {
        let layout = &self.config.base;
        if self.chain_ckpts.len() == layout.n_controllers()
            && self.coll_ckpts.len() == layout.n_levels()
        {
            ctx.send(PHONEBOOK, Msg::Checkpoint);
        }
    }

    /// Assemble the consistent cut, persist it and close the barrier: stop
    /// there (preemption) or resume the controllers.
    fn complete_checkpoint(&mut self, ctx: &VCtx<'_, Msg>, ledger: LedgerBook) {
        let spec = self
            .ckpt
            .expect("ledger checkpoint without a checkpoint spec");
        self.chain_ckpts.sort_by_key(|c| c.rank);
        self.coll_ckpts.sort_by_key(|c| c.level);
        let samples_done = self.coll_ckpts.last().map_or(0, |c| c.count);
        let snapshot = RunSnapshot {
            seed: self.config.base.seed,
            samples_done,
            chains: std::mem::take(&mut self.chain_ckpts),
            collectors: std::mem::take(&mut self.coll_ckpts),
            ledger,
        };
        let hash = spec
            .store
            .put_snapshot(&snapshot, spec.config_hash)
            .expect("checkpoint: snapshot write failed");
        if let Some(hook) = spec.on_snapshot {
            hook(samples_done, &hash);
        }
        if spec
            .stop
            .is_some_and(|s| s.load(std::sync::atomic::Ordering::SeqCst))
        {
            // Graceful preemption: the snapshot just persisted is the
            // resume point. Every controller is paused at a clean
            // boundary (they accept `Shutdown` while paused) and the
            // ledger is drained, so declaring all levels done drives the
            // normal phonebook → collectors → controllers teardown with
            // nothing in flight. The ticks still pending are not cut.
            self.preempted = true;
            self.ticks = 0;
            for done in self.level_done.iter_mut() {
                *done = true;
            }
        } else {
            let layout = &self.config.base;
            for rank in layout.first_controller_rank()..layout.n_ranks() {
                ctx.send(rank, Msg::CheckpointDone);
            }
        }
        self.tracer.record(
            ROOT,
            SpanKind::Checkpoint,
            self.ckpt_start,
            self.tracer.now(),
        );
        self.ckpt_active = false;
    }

    fn assemble(&mut self, elapsed: f64) -> ParallelReport {
        let levels = self
            .collectors
            .iter_mut()
            .enumerate()
            .map(|(level, c)| {
                let c = c.take().expect("collector report missing");
                let moments = c.moments.as_ref();
                ParallelLevelReport {
                    level,
                    n_samples: c.count,
                    mean_correction: moments.map_or_else(Vec::new, |m| m.mean()),
                    var_correction: moments.map_or_else(Vec::new, |m| m.variance()),
                    evaluations: self.evals[level],
                    mean_eval_ms: if self.evals[level] > 0 {
                        self.eval_secs[level] * 1e3 / self.evals[level] as f64
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
            elapsed,
            n_ranks: self.config.base.n_ranks(),
            reassignments: self.phonebook_stats.reassignments,
        }
    }
}

impl VirtualRank<Msg> for RootRank<'_> {
    type Output = RoleOut;

    fn poll(&mut self, ctx: &mut VCtx<'_, Msg>) -> Poll<Msg, RoleOut> {
        let config = &self.config.base;
        let controllers = config.first_controller_rank()..config.n_ranks();
        loop {
            match self.phase {
                RootPhase::Levels => {
                    while let Some(env) = ctx.try_recv_match(levels_msg) {
                        match env.msg {
                            Msg::LevelDone { level } if !self.level_done[level] => {
                                self.level_done[level] = true;
                                for rank in controllers.clone() {
                                    ctx.send(rank, Msg::StopProducing { level });
                                }
                                ctx.send(PHONEBOOK, Msg::LevelDone { level });
                            }
                            Msg::LevelDone { .. } => {}
                            Msg::CheckpointTick => self.ticks += 1,
                            Msg::ControllerCkpt(c) => {
                                self.tracer.incr(Counter::BarrierAcks);
                                self.chain_ckpts.push(*c);
                                self.maybe_request_ledger(ctx);
                            }
                            Msg::CollectorCkpt(c) => {
                                self.tracer.incr(Counter::BarrierAcks);
                                self.coll_ckpts.push(*c);
                                self.maybe_request_ledger(ctx);
                            }
                            Msg::LedgerCkpt(ledger) => {
                                self.tracer.incr(Counter::BarrierAcks);
                                self.complete_checkpoint(ctx, *ledger);
                            }
                            _ => unreachable!(),
                        }
                        // one cut per tick, one barrier at a time, even
                        // once the levels are done
                        if self.ticks > 0 && !self.ckpt_active {
                            self.ticks -= 1;
                            self.start_checkpoint(ctx);
                        }
                    }
                    // an in-flight checkpoint defers shutdown (its cut
                    // must be fully persisted, never torn), and so does a
                    // pending tick, which keeps one open
                    if self.level_done.iter().all(|&d| d) && !self.ckpt_active {
                        // shut the phonebook down first, so no request can
                        // be forwarded to a controller that already exited
                        ctx.send(PHONEBOOK, Msg::Shutdown);
                        self.phase = RootPhase::Phonebook;
                        continue;
                    }
                    return Poll::Wait(Box::new(levels_msg));
                }
                RootPhase::Phonebook => {
                    // its report is its last message: the ack
                    let Some(env) = ctx.try_recv_match(phonebook_report) else {
                        return Poll::Wait(Box::new(phonebook_report));
                    };
                    let Msg::PhonebookReport(stats) = env.msg else {
                        unreachable!()
                    };
                    self.phonebook_stats = *stats;
                    for rank in config.collector_rank(0)..config.n_ranks() {
                        ctx.send(rank, Msg::Shutdown);
                    }
                    self.phase = RootPhase::Gather;
                }
                RootPhase::Gather => {
                    while let Some(env) = ctx.try_recv() {
                        match env.msg {
                            Msg::CollectorReport(report) => {
                                let level = report.level;
                                self.collectors[level] = Some(*report);
                            }
                            Msg::ControllerReport { evals, eval_secs } => {
                                for (acc, v) in self.evals.iter_mut().zip(&evals) {
                                    *acc += v;
                                }
                                for (acc, v) in self.eval_secs.iter_mut().zip(&eval_secs) {
                                    *acc += v;
                                }
                                self.controller_reports += 1;
                            }
                            _ => {}
                        }
                    }
                    if self.collectors.iter().all(Option::is_some)
                        && self.controller_reports == config.n_controllers()
                    {
                        let report = self.assemble(ctx.now());
                        let stats = self.phonebook_stats;
                        let preempted = self.preempted;
                        return Poll::Exit(RoleOut::Root(Box::new((report, stats, preempted))));
                    }
                    return Poll::Wait(Box::new(|_| true));
                }
            }
        }
    }
}

/// What the root takes while levels run ([`RootPhase::Levels`]): level
/// completion and the checkpoint barrier's traffic.
fn levels_msg(e: &Envelope<Msg>) -> bool {
    matches!(
        e.msg,
        Msg::LevelDone { .. }
            | Msg::CheckpointTick
            | Msg::ControllerCkpt(_)
            | Msg::CollectorCkpt(_)
            | Msg::LedgerCkpt(_)
    )
}

/// What the root takes during the phonebook's shutdown handshake
/// ([`RootPhase::Phonebook`]).
fn phonebook_report(e: &Envelope<Msg>) -> bool {
    matches!(e.msg, Msg::PhonebookReport(_))
}

// ---------------------------------------------------------------------
// phonebook
// ---------------------------------------------------------------------

pub(crate) struct PhonebookRank<'a> {
    config: &'a RuntimeConfig,
    tracer: &'a Tracer,
    /// Controllers of level `l` announcing serve availability.
    ready: Vec<VecDeque<usize>>,
    /// Requesters waiting for a level-`l` serve, with their anchors and
    /// whether they read the mate.
    pending: Vec<VecDeque<(usize, Box<CoarseSample>, bool)>>,
    /// The per-requester rewind ledger (lease lookups happen inside the
    /// batched drain loop — one session map access per routed serve).
    ledger: LedgerBook,
    level_of: std::collections::HashMap<usize, usize>,
    done: Vec<bool>,
    stats: PhonebookStats,
    // reassignment rate limiting at the model-runtime timescale
    last_ready_at: Vec<f64>,
    ema_interval: Vec<f64>,
    last_reassign_at: f64,
    /// Serves dispatched but not yet written back: a checkpoint's ledger
    /// export waits for zero, so the export reflects every outcome a
    /// captured chain observed (consistent cut — DESIGN.md §7).
    in_flight: usize,
    ckpt_pending: bool,
}

impl<'a> PhonebookRank<'a> {
    pub(crate) fn new(
        config: &'a RuntimeConfig,
        tracer: &'a Tracer,
        resume: Option<&LedgerBook>,
    ) -> Self {
        let n_levels = config.n_levels();
        Self {
            config,
            tracer,
            ready: vec![VecDeque::new(); n_levels],
            pending: vec![VecDeque::new(); n_levels],
            ledger: resume.cloned().unwrap_or_default(),
            level_of: (config.base.first_controller_rank()..config.base.n_ranks())
                .map(|rank| (rank, config.base.initial_level(rank)))
                .collect(),
            done: vec![false; n_levels],
            stats: PhonebookStats::default(),
            last_ready_at: vec![f64::NAN; n_levels],
            ema_interval: vec![0.05; n_levels],
            last_reassign_at: f64::NEG_INFINITY,
            in_flight: 0,
            ckpt_pending: false,
        }
    }

    /// One load-balancing pass (paper Section 4.3) — run once per batch
    /// instead of once per message.
    fn balance(&mut self, ctx: &VCtx<'_, Msg>, now: f64) {
        if !self.config.base.load_balancing {
            return;
        }
        let n_levels = self.config.n_levels();
        let Some(starved) = (0..n_levels).find(|&l| !self.pending[l].is_empty()) else {
            return;
        };
        let donor_level = (0..n_levels).filter(|&m| m != starved).find(|&m| {
            let idle = self.ready[m].len();
            let group_count = self.level_of.values().filter(|&&l| l == m).count();
            let still_needed = (m + 1..n_levels).any(|f| !self.done[f]) || !self.done[m];
            if self.done[m] && self.pending[m].is_empty() {
                idle >= 1 && (!still_needed || group_count >= 2)
            } else {
                idle >= 2 && group_count >= 2
            }
        });
        let Some(donor_level) = donor_level else {
            return;
        };
        let cooldown = self.ema_interval[starved].max(self.ema_interval[donor_level]) * 2.0;
        if now - self.last_reassign_at < cooldown {
            return;
        }
        if let Some(rank) = self.ready[donor_level].pop_front() {
            // the book stays: a session only ever advances, so the chain
            // continues its sessions if it returns to a level (DESIGN §5)
            self.level_of.insert(rank, starved);
            ctx.send(rank, Msg::Reassign { level: starved });
            self.tracer.mark(
                rank,
                SpanKind::Reassign {
                    from: donor_level,
                    to: starved,
                },
            );
            self.stats.reassignments += 1;
            self.last_reassign_at = now;
        }
    }

    /// A server became available (initial announce or completed serve):
    /// route a queued request to it, else park it.
    fn server_available(&mut self, ctx: &VCtx<'_, Msg>, server: usize, level: usize, now: f64) {
        if !self.last_ready_at[level].is_nan() {
            let dt = now - self.last_ready_at[level];
            self.ema_interval[level] = 0.8 * self.ema_interval[level] + 0.2 * dt;
        }
        self.last_ready_at[level] = now;
        if let Some((reply_to, anchor, mate)) = self.pending[level].pop_front() {
            self.route(ctx, server, level, reply_to, *anchor, mate);
        } else {
            self.ready[level].push_back(server);
        }
    }

    /// Lease the next serve of `reply_to`'s session on `level` — with the
    /// mate if the request reads it — and send it to `server`.
    fn route(
        &mut self,
        ctx: &VCtx<'_, Msg>,
        server: usize,
        level: usize,
        reply_to: usize,
        anchor: CoarseSample,
        mate: bool,
    ) {
        let seed = self.config.base.seed;
        let lease = self.ledger.lease(seed, level, reply_to, anchor, mate);
        self.in_flight += 1;
        ctx.send(server, Msg::Serve { reply_to, lease });
        self.stats.routed += 1;
    }
}

impl VirtualRank<Msg> for PhonebookRank<'_> {
    type Output = RoleOut;

    fn poll(&mut self, ctx: &mut VCtx<'_, Msg>) -> Poll<Msg, RoleOut> {
        // batched routing: drain EVERYTHING queued, route in one pass
        let mut batch = 0usize;
        let mut shutdown = false;
        let now = ctx.now();
        while let Some(env) = ctx.try_recv() {
            batch += 1;
            match env.msg {
                Msg::SampleReady { level } => self.server_available(ctx, env.from, level, now),
                Msg::CoarseRequest {
                    level,
                    reply_to,
                    anchor,
                    mate,
                } => {
                    if let Some(server) = self.ready[level].pop_front() {
                        self.route(ctx, server, level, reply_to, *anchor, mate);
                    } else {
                        self.pending[level].push_back((reply_to, anchor, mate));
                    }
                }
                Msg::ServeDone {
                    requester,
                    level,
                    serves,
                    pairing,
                    diverged,
                } => {
                    self.in_flight -= 1;
                    self.tracer.incr(Counter::WriteBacks);
                    let pairing = pairing.map(|p| *p);
                    self.ledger
                        .write_back(requester, level, serves, pairing, diverged);
                    self.server_available(ctx, env.from, level, now);
                }
                Msg::Checkpoint => self.ckpt_pending = true,
                Msg::LevelDone { level } => self.done[level] = true,
                Msg::Shutdown => shutdown = true,
                _ => {}
            }
        }
        // quiesce: the root sends `Checkpoint` only after every
        // controller acked its pause. A controller acks only between its
        // own steps, and every request serves some controller's step,
        // directly or nested in a serve, so by then every request was
        // answered and none is queued or arrives; what is left in flight
        // are write-backs, each parks its server, and `in_flight`
        // reaches zero
        if self.ckpt_pending && self.in_flight == 0 {
            self.ckpt_pending = false;
            debug_assert!(self.pending.iter().all(VecDeque::is_empty));
            ctx.send(ROOT, Msg::LedgerCkpt(Box::new(self.ledger.clone())));
        }
        if batch > 0 {
            self.stats.wakeups += 1;
            self.stats.messages += batch;
            self.stats.max_batch = self.stats.max_batch.max(batch);
        }
        if shutdown {
            // no more forwards: the report is the ack. A request still
            // queued goes unanswered; its requester waits on `Shutdown`
            // too, which the root sends only after this report
            self.stats.ledger = self.ledger.stats;
            ctx.send(ROOT, Msg::PhonebookReport(Box::new(self.stats)));
            return Poll::Exit(RoleOut::Quiet);
        }
        self.balance(ctx, now);
        Poll::Wait(Box::new(|_| true))
    }
}

// ---------------------------------------------------------------------
// collector
// ---------------------------------------------------------------------

pub(crate) struct CollectorRank {
    /// The level's accumulators, which are its cut: a barrier sends a
    /// copy, shutdown the value itself.
    state: CollectorCkpt,
    /// `N_l`.
    quota: usize,
    record_samples: bool,
    /// Chains assigned to this level (each sends one `CheckpointFlush`).
    producers: usize,
    /// Checkpoint pacing interval, for the top level's collector (`ticker`).
    ckpt_every: usize,
    ticker: bool,
    flushes: usize,
    done_sent: bool,
}

impl CollectorRank {
    /// The collector of `level`. `ckpt_every > 0` makes the top level's
    /// collector tick the root every that many recorded corrections.
    pub(crate) fn new(
        config: &RuntimeConfig,
        level: usize,
        ckpt_every: usize,
        resume: Option<&CollectorCkpt>,
    ) -> Self {
        let fresh = || CollectorCkpt {
            level,
            ..CollectorCkpt::default()
        };
        Self {
            state: resume.cloned().unwrap_or_else(fresh),
            quota: config.base.samples_per_level[level],
            record_samples: config.base.record_samples,
            producers: config.base.chains_per_level[level],
            ckpt_every,
            ticker: ckpt_every > 0 && level + 1 == config.n_levels(),
            flushes: 0,
            done_sent: false,
        }
    }
}

impl VirtualRank<Msg> for CollectorRank {
    type Output = RoleOut;

    fn poll(&mut self, ctx: &mut VCtx<'_, Msg>) -> Poll<Msg, RoleOut> {
        let state = &mut self.state;
        // covers quota == 0 and a resumed collector that was already full
        if !self.done_sent && state.count >= self.quota {
            self.done_sent = true;
            ctx.send(ROOT, Msg::LevelDone { level: state.level });
        }
        while let Some(env) = ctx.try_recv() {
            match env.msg {
                Msg::Correction {
                    level,
                    y,
                    theta,
                    fine_qoi,
                    coarse_qoi,
                } if level == state.level && state.count < self.quota => {
                    state
                        .moments
                        .get_or_insert_with(|| VectorMoments::new(y.len()))
                        .push(&y);
                    state.count += 1;
                    if self.record_samples {
                        state.theta_samples.push(theta);
                        if let Some(cq) = coarse_qoi {
                            state.correction_pairs.push((cq, fine_qoi));
                        }
                    }
                    if state.count == self.quota && !self.done_sent {
                        self.done_sent = true;
                        ctx.send(ROOT, Msg::LevelDone { level });
                    } else if self.ticker && state.count.is_multiple_of(self.ckpt_every) {
                        ctx.send(ROOT, Msg::CheckpointTick);
                    }
                }
                Msg::CheckpointFlush => {
                    // one marker per chain on this level, each sent after
                    // that chain's last pre-pause Correction (FIFO per
                    // destination): once all arrive the collector's state
                    // is consistent with every captured chain
                    self.flushes += 1;
                    if self.flushes == self.producers {
                        self.flushes = 0;
                        ctx.send(ROOT, Msg::CollectorCkpt(Box::new(state.clone())));
                    }
                }
                Msg::Shutdown => {
                    let report = std::mem::take(state);
                    ctx.send(ROOT, Msg::CollectorReport(Box::new(report)));
                    return Poll::Exit(RoleOut::Quiet);
                }
                _ => {}
            }
        }
        Poll::Wait(Box::new(|_| true))
    }
}

// ---------------------------------------------------------------------
// controller
// ---------------------------------------------------------------------

/// A ledger serve in progress on the controller's chain: the serve
/// itself ([`ledger::Serve`]) and what the controller keeps around it.
/// Nested coarse requests suspend the job like an ordinary coupled
/// step.
struct ServeJob {
    reply_to: usize,
    lease: LedgerLease,
    /// The controller's own trajectory, returned to when the serve ends.
    bookmark: Bookmark,
    serve: ledger::Serve,
}

pub(crate) struct ControllerRank<'a> {
    /// The hierarchy, counting its evaluations level by level.
    factory: Hooked<'a, Vec<EvalCounter>>,
    config: &'a RuntimeConfig,
    tracer: &'a Tracer,
    rank: usize,
    level: usize,
    chain: MlChain,
    /// The level below's problem (`None` on level 0): the chain's initial
    /// anchor and a requester's missing sub-anchor are evaluated on it,
    /// and the QOI of the coarse sample each correction pairs with.
    coarse: Coarse,
    rng: StdRng,
    done_levels: Vec<bool>,
    burnin_left: usize,
    producing: bool,
    /// The lease routed to us and not yet started. At most one: the
    /// phonebook routes a lease only to a server in its ready queue, and a
    /// server re-enters that queue only with its `ServeDone`, after its
    /// serve ended. For the same reason a reassigned chain has none, and
    /// no serve job (DESIGN §3).
    pending_serve: Option<(usize, Box<LedgerLease>)>,
    serve_job: Option<ServeJob>,
    announced: bool,
    /// A coarse request is outstanding: the suspended step is the serve
    /// job's if there is one, else our own chain's. At every poll
    /// boundary `serve_job.is_some()` implies this — a serve runs until
    /// it suspends or completes.
    awaiting: bool,
    /// Epoch time the outstanding coarse request was issued (feeds the
    /// request-wait histogram on fulfillment; meaningless when not
    /// `awaiting` or tracing is off).
    await_since: f64,
    /// Own stepping suspended for an in-flight checkpoint (serving
    /// continues, so requesters still reach their own clean boundaries).
    paused: bool,
    /// Epoch time the quiesce pause began (span recorded on resume).
    pause_start: f64,
}

impl<'a> ControllerRank<'a> {
    pub(crate) fn new(
        factory: &'a dyn LevelFactory,
        config: &'a RuntimeConfig,
        tracer: &'a Tracer,
        rank: usize,
        resume: Option<&ChainCkpt>,
    ) -> Self {
        let n_levels = config.n_levels();
        let level = config.base.initial_level(rank);
        let counters: Vec<EvalCounter> = (0..n_levels).map(|_| EvalCounter::new()).collect();
        let factory = Hooked::new(factory, counters);
        let rng = StdRng::seed_from_u64(controller_seed(config.base.seed, rank));
        let (chain, coarse) = controller_chain(&factory, level);
        let mut this = Self {
            chain,
            coarse,
            factory,
            config,
            tracer,
            rank,
            level,
            rng,
            done_levels: vec![false; n_levels],
            burnin_left: config.base.burn_in[level],
            producing: true,
            pending_serve: None,
            serve_job: None,
            announced: false,
            awaiting: false,
            await_since: 0.0,
            paused: false,
            pause_start: 0.0,
        };
        this.reset_level_state();
        if let Some(r) = resume {
            // `Run::new` matched the cut's rank, level and done levels
            // to this layout
            this.chain.import_state(r.chain.clone());
            this.rng = StdRng::from_state(r.rng);
            this.done_levels = r.done_levels.clone();
            this.burnin_left = r.burnin_left;
            this.producing = r.producing;
        }
        this
    }

    fn reset_level_state(&mut self) {
        self.burnin_left = self.config.base.burn_in[self.level];
        self.producing = !self.done_levels[self.level];
        self.serve_job = None;
        self.announced = false;
        self.awaiting = false;
    }

    /// Trace span for the next kernel step: a serve's, else our own
    /// chain's — burn-in steps show up as `Burnin` (Fig. 9's yellow
    /// boxes).
    fn span_kind(&self, job: Option<&ServeJob>) -> SpanKind {
        let level = self.level;
        match job {
            Some(_) => SpanKind::Serve { level },
            None if self.burnin_left > 0 => SpanKind::Burnin { level },
            None => SpanKind::Eval { level },
        }
    }

    fn is_top(&self) -> bool {
        self.level + 1 >= self.config.n_levels()
    }

    /// Bookkeeping after a completed chain step.
    fn post_step(&mut self, ctx: &VCtx<'_, Msg>) {
        if self.burnin_left > 0 {
            self.burnin_left -= 1;
            return;
        }
        if self.producing {
            // the recorded triple travels only when recorded (`Msg::correction`)
            let base = &self.config.base;
            let correction = Msg::correction(
                self.level,
                &mut self.chain,
                self.coarse.as_deref_mut(),
                base.pairing,
                base.record_samples,
            );
            ctx.send(self.config.base.collector_rank(self.level), correction);
        }
    }

    fn want_step(&self) -> bool {
        self.burnin_left > 0 || self.producing
    }

    /// Send the coarse request of the step that just suspended — our own
    /// or the serve job's nested one, which never reads its mate — and
    /// wait for its sample.
    fn request_coarse(&mut self, ctx: &VCtx<'_, Msg>) -> Poll<Msg, RoleOut> {
        let want = self.level - 1;
        let anchor = self.chain.anchor().expect("coupled chain has an anchor");
        let own_step = self.serve_job.is_none();
        ctx.send(
            PHONEBOOK,
            Msg::CoarseRequest {
                level: want,
                reply_to: self.rank,
                anchor: Box::new(anchor.clone()),
                mate: ledger::reads_mate(own_step, self.config.base.pairing),
            },
        );
        self.awaiting = true;
        self.await_since = self.tracer.now();
        Poll::Wait(coarse_wait_pred(want))
    }

    /// Begin a ledger serve: bookmark our trajectory (evaluating
    /// nothing), then start the serve (which rewinds the chain to the
    /// lease's anchor).
    fn start_serve(&mut self, reply_to: usize, lease: LedgerLease) -> ServeJob {
        let (bookmark, mut lease) = (self.chain.bookmark(), lease);
        if let (Some(coarse), Some(own)) = (self.coarse.as_deref_mut(), self.chain.anchor()) {
            // a requester's initial anchor was packaged by no serving
            // chain: its sub-anchor lives on our own anchor's level
            let theta = &lease.anchor.theta[..own.theta.len()];
            let sub = &mut lease.anchor.sub_anchor;
            sub.get_or_insert_with(|| Box::new(CoarseSample::at(coarse, theta)));
        }
        let rho = self.factory.subsampling_rate(self.level);
        let serve = ledger::Serve::start(&mut self.chain, rho, &lease);
        ServeJob {
            reply_to,
            lease,
            bookmark,
            serve,
        }
    }

    /// Drive `job` until its serve suspends on a nested coarse request
    /// (the job is parked in `serve_job`) or completes.
    fn drive_serve(&mut self, ctx: &mut VCtx<'_, Msg>, mut job: ServeJob) -> Poll<Msg, RoleOut> {
        loop {
            let span = self.span_kind(Some(&job));
            let serve_start = self.tracer.now();
            match job.serve.step(&mut self.chain, &job.lease) {
                ServeStep::Stepped => {
                    self.tracer
                        .record(self.rank, span, serve_start, self.tracer.now());
                }
                ServeStep::NeedCoarse => {
                    self.serve_job = Some(job);
                    return self.request_coarse(ctx);
                }
                ServeStep::Done(outcome) => {
                    self.finish_serve(ctx, job, outcome);
                    return Poll::Ready;
                }
            }
        }
    }

    /// Conclude a serve: return to our trajectory, send the phonebook
    /// the one `ServeDone` (write-back plus the availability
    /// re-announce) and ship the proposal (mate piggybacked, if the lease
    /// asked for it) to the requester.
    fn finish_serve(&mut self, ctx: &VCtx<'_, Msg>, job: ServeJob, outcome: ledger::ServeOutcome) {
        self.chain.return_to(job.bookmark);
        // the write-back MUST be enqueued before the requester's
        // proposal: program order plus per-destination FIFO then
        // guarantee the phonebook applies it before the requester's
        // next request can arrive — a session never serves the same
        // stream position twice (the no-replay invariant)
        ctx.send(
            PHONEBOOK,
            Msg::ServeDone {
                requester: job.reply_to,
                level: self.level,
                serves: job.lease.serves + 1,
                pairing: outcome.pairing.map(Box::new),
                diverged: outcome.diverged,
            },
        );
        ctx.send(
            job.reply_to,
            Msg::CoarseSample {
                level: self.level,
                sample: Box::new(outcome.proposal),
            },
        );
        self.tracer.incr(Counter::Serves);
        self.announced = true;
    }

    /// Teardown: report and exit. A requester still waiting on a serve of
    /// ours exits on its own `Shutdown`.
    fn teardown(&mut self, ctx: &mut VCtx<'_, Msg>) -> Poll<Msg, RoleOut> {
        let counters = self.factory.hook();
        let evals: Vec<usize> = counters.iter().map(EvalCounter::evaluations).collect();
        let eval_secs: Vec<f64> = counters.iter().map(EvalCounter::total_secs).collect();
        ctx.send(ROOT, Msg::ControllerReport { evals, eval_secs });
        Poll::Exit(RoleOut::Quiet)
    }
}

impl VirtualRank<Msg> for ControllerRank<'_> {
    type Output = RoleOut;

    fn poll(&mut self, ctx: &mut VCtx<'_, Msg>) -> Poll<Msg, RoleOut> {
        // 1. control messages. While a coarse request (and with it any
        //    serve job) is in flight, `Reassign` and `Checkpoint` stay
        //    buffered: in-flight work finishes before the chain is
        //    rebuilt or captured.
        let busy = self.awaiting;
        while let Some(env) = ctx.try_recv_match(|e| {
            matches!(
                e.msg,
                Msg::Serve { .. } | Msg::StopProducing { .. } | Msg::Shutdown | Msg::CheckpointDone
            ) || (!busy && matches!(e.msg, Msg::Reassign { .. } | Msg::Checkpoint))
        }) {
            match env.msg {
                Msg::Serve { reply_to, lease } => {
                    debug_assert!(self.pending_serve.is_none() && self.serve_job.is_none());
                    self.pending_serve = Some((reply_to, lease));
                }
                Msg::StopProducing { level } => {
                    self.done_levels[level] = true;
                    if level == self.level {
                        self.producing = false;
                    }
                }
                Msg::Checkpoint => {
                    // `!busy` gates this arm: no own step or serve job is
                    // mid-flight, so the chain sits at a clean boundary
                    // and the rng between draws. This point can be
                    // mid-burn-in — the real `burnin_left` is captured.
                    // The flush marker trails our last Correction (FIFO
                    // per destination).
                    let collector = self.config.base.collector_rank(self.level);
                    ctx.send(collector, Msg::CheckpointFlush);
                    ctx.send(
                        ROOT,
                        Msg::ControllerCkpt(Box::new(ChainCkpt {
                            rank: self.rank,
                            level: self.level,
                            burnin_left: self.burnin_left,
                            producing: self.producing,
                            done_levels: self.done_levels.clone(),
                            rng: self.rng.state(),
                            chain: self.chain.export_state(),
                        })),
                    );
                    self.paused = true;
                    self.pause_start = self.tracer.now();
                }
                Msg::CheckpointDone => {
                    if self.paused {
                        self.tracer.record(
                            self.rank,
                            SpanKind::Quiesce,
                            self.pause_start,
                            self.tracer.now(),
                        );
                    }
                    self.paused = false;
                }
                Msg::Reassign { level } => {
                    // abandon this chain, rebuild on the new level; we
                    // owe nobody a serve (`pending_serve`)
                    debug_assert!(self.pending_serve.is_none());
                    self.level = level;
                    (self.chain, self.coarse) = controller_chain(&self.factory, level);
                    self.reset_level_state();
                }
                Msg::Shutdown => return self.teardown(ctx),
                _ => unreachable!(),
            }
        }

        // 2. fulfill the single outstanding coarse request if its sample
        //    arrived — the serve job's nested step if there is a job,
        //    else our own suspended step
        if self.awaiting {
            let want_level = self.level - 1;
            let Some(env) = ctx.try_recv_match(
                |e| matches!(&e.msg, Msg::CoarseSample { level, .. } if *level == want_level),
            ) else {
                return Poll::Wait(coarse_wait_pred(want_level));
            };
            let Msg::CoarseSample { sample, .. } = env.msg else {
                unreachable!()
            };
            let coarse = *sample;
            self.tracer.observe(
                Hist::RequestWait,
                (self.tracer.now() - self.await_since) * 1e6,
            );
            self.awaiting = false;
            let mut job = self.serve_job.take();
            let span = self.span_kind(job.as_ref());
            let eval_start = self.tracer.now();
            match &mut job {
                Some(job) => job.serve.resume(&mut self.chain, coarse),
                None => {
                    self.chain.resume_step(&mut self.rng, coarse);
                }
            }
            self.tracer
                .record(self.rank, span, eval_start, self.tracer.now());
            return match job {
                Some(job) => self.drive_serve(ctx, job),
                None => {
                    self.post_step(ctx);
                    Poll::Ready
                }
            };
        }

        // 3. a requester is suspended on every queued serve: run ledger
        //    serves before our own chain
        if self.burnin_left == 0 {
            if let Some((reply_to, lease)) = self.pending_serve.take() {
                let job = self.start_serve(reply_to, *lease);
                return self.drive_serve(ctx, job);
            }
            if !self.announced && !self.is_top() {
                // availability token: ρ is enforced inside the ledger
                // serve, so no stride gating on our own chain
                ctx.send(PHONEBOOK, Msg::SampleReady { level: self.level });
                self.announced = true;
            }
        }

        // 4. advance our own chain if there is a reason to (never while
        //    paused for a checkpoint — the captured state must stay the
        //    state the snapshot resumes from)
        if self.want_step() && !self.paused {
            let span = self.span_kind(None);
            let eval_start = self.tracer.now();
            match self.chain.poll_step(&mut self.rng) {
                StepOutcome::Done(_) => {
                    self.tracer
                        .record(self.rank, span, eval_start, self.tracer.now());
                    self.post_step(ctx);
                    Poll::Ready
                }
                StepOutcome::NeedCoarse => self.request_coarse(ctx),
            }
        } else {
            // idle: any message may change the situation
            Poll::Wait(Box::new(|_| true))
        }
    }
}

type Coarse = Option<Box<dyn SamplingProblem>>;

/// A controller's chain (its coarse proposals arrive through the
/// phonebook) and the level below's problem it is anchored on and fills
/// its coarse QOIs with.
fn controller_chain(factory: &dyn LevelFactory, level: usize) -> (MlChain, Coarse) {
    let mut coarse = level.checked_sub(1).map(|below| factory.problem(below));
    let chain = build_chain(factory, level, |theta| {
        // `build_chain` anchors coupled levels only, which have a level below
        CoarseSample::at(coarse.as_deref_mut().expect("a level below"), theta)
    });
    (chain, coarse)
}

/// Wait predicate of a controller suspended on a coarse request: its
/// sample, or shutdown (the single definition keeps the suspend and
/// re-suspend paths in sync).
fn coarse_wait_pred(want_level: usize) -> crate::runtime::WaitPred<Msg> {
    Box::new(move |e| {
        matches!(&e.msg, Msg::CoarseSample { level, .. } if *level == want_level)
            || matches!(e.msg, Msg::Shutdown)
    })
}

// ---------------------------------------------------------------------
// the front door
// ---------------------------------------------------------------------

/// A role machine, as the executors hold it.
pub(crate) type Machine<'a> = Box<dyn VirtualRank<Msg, Output = RoleOut> + Send + 'a>;

/// One run, as a value: *what* to run — the validated inputs and, from
/// them, the machine of each rank. *Where* is a [`Placement`]; [`Run::on`]
/// is the one function between the two. The placement leaves no mark on a
/// snapshot: the root writes one kind of cut on every placement, and a
/// snapshot resumes under any placement whose rank layout it fits.
#[derive(Clone, Copy)]
pub struct Run<'a> {
    pub(crate) factory: &'a dyn LevelFactory,
    pub(crate) config: &'a RuntimeConfig,
    pub(crate) tracer: &'a Tracer,
    pub(crate) checkpoint: Option<&'a ParallelCheckpoint<'a>>,
    pub(crate) resume: Option<&'a RunSnapshot>,
}

/// Where a [`Run`] is placed: who polls its machines.
pub enum Placement<'a> {
    /// Every rank on this worker pool, which may be reused: each report's
    /// [`RuntimeReport::runtime`] stats are that run's alone.
    Pool(&'a Runtime),
    /// The fixed ranks and any controller remainder on `runtime`, the
    /// controllers in `workers` equal contiguous blocks on the first
    /// `workers` peers that dial `driver` ([`crate::net::net_worker`]);
    /// blocks until they have. A worker that leaves or joins at a
    /// checkpoint barrier stops the run there and resumes it from the
    /// barrier's cut on the new layout, inside the one call.
    Net {
        runtime: &'a Runtime,
        driver: crate::net::NetDriver,
        workers: usize,
    },
    /// One thread in virtual time ([`crate::sim`]): evaluations are really
    /// performed and charged `cost.eval_time`, `seed` picks the deliveries.
    Sim { cost: &'a SimCost, seed: u64 },
}

impl<'a> Run<'a> {
    /// Both `checkpoint` and `resume` require
    /// `config.base.load_balancing == false` (snapshots pin each chain to
    /// a level). A resumed run continues bit-identically in the
    /// deterministic regime (one chain per level on two levels, or one
    /// pool worker): every chain restores its exact kernel state and RNG
    /// stream position, collectors restore their accumulators and the
    /// phonebook re-imports the ledger.
    ///
    /// # Panics
    /// Panics on an inconsistent configuration (levels beyond the
    /// factory, levels without chains, `collector_shards` other than 1,
    /// checkpointing with load balancing on) and on a `resume` snapshot
    /// that does not fit this configuration's seed and rank layout; the
    /// message names the rung that refused it.
    pub fn new(
        factory: &'a dyn LevelFactory,
        config: &'a RuntimeConfig,
        tracer: &'a Tracer,
        checkpoint: Option<&'a ParallelCheckpoint<'a>>,
        resume: Option<&'a RunSnapshot>,
    ) -> Self {
        assert!(
            config.n_levels() <= factory.n_levels(),
            "parallel run: more levels configured than the factory provides"
        );
        assert!(
            config.base.chains_per_level.iter().all(|&c| c >= 1),
            "parallel run: every level needs at least one chain"
        );
        assert_eq!(
            config.collector_shards, 1,
            "parallel run: one collector per level"
        );
        assert!(
            !config.base.load_balancing || (checkpoint.is_none() && resume.is_none()),
            "parallel run: checkpoint/resume requires load_balancing = false \
             (snapshots pin each chain to a level)"
        );
        if let Some(snap) = resume {
            let layout = &config.base;
            assert_eq!(
                snap.seed, config.base.seed,
                "parallel run: snapshot seed mismatch"
            );
            assert_eq!(
                snap.chains.len(),
                layout.n_controllers(),
                "parallel run: snapshot chain count mismatch"
            );
            assert_eq!(
                snap.collectors.len(),
                layout.n_levels(),
                "parallel run: snapshot collector count mismatch"
            );
            // `machine` indexes both by rank offset; load balancing is
            // off, so each chain sits on its rank's static level
            for (i, c) in snap.chains.iter().enumerate() {
                let rank = layout.first_controller_rank() + i;
                assert_eq!(
                    c.rank, rank,
                    "parallel run: snapshot chain ranks inconsistent"
                );
                assert_eq!(
                    c.level,
                    layout.initial_level(rank),
                    "parallel run: snapshot chain levels inconsistent"
                );
                assert_eq!(
                    c.done_levels.len(),
                    layout.n_levels(),
                    "parallel run: snapshot done levels off the hierarchy"
                );
            }
            for (level, c) in snap.collectors.iter().enumerate() {
                assert_eq!(
                    c.level, level,
                    "parallel run: snapshot collector slots inconsistent"
                );
            }
        }
        Self {
            factory,
            config,
            tracer,
            checkpoint,
            resume,
        }
    }

    /// The role machine of `rank`.
    pub(crate) fn machine(&self, rank: usize) -> Machine<'a> {
        let Self {
            factory,
            config,
            tracer,
            resume,
            ..
        } = *self;
        let layout = &config.base;
        if rank == ROOT {
            Box::new(RootRank::new(config, tracer, self.checkpoint))
        } else if rank == PHONEBOOK {
            let ledger = resume.map(|s| &s.ledger);
            Box::new(PhonebookRank::new(config, tracer, ledger))
        } else if rank < layout.first_controller_rank() {
            // snapshot collectors are in level order, which is rank order
            let level = rank - layout.collector_rank(0);
            Box::new(CollectorRank::new(
                config,
                level,
                self.checkpoint.map_or(0, |c| c.every),
                resume.map(|s| &s.collectors[level]),
            ))
        } else {
            let chain = resume.map(|s| &s.chains[rank - layout.first_controller_rank()]);
            Box::new(ControllerRank::new(factory, config, tracer, rank, chain))
        }
    }

    /// Run on `placement` to the assembled report. Only
    /// [`Placement::Sim`] can come back `Err` — a deadlock or an
    /// exhausted `poll_budget`, carrying the seed.
    ///
    /// # Panics
    /// [`Placement::Net`] refuses no worker and more workers than
    /// controllers; [`Placement::Sim`] a `cost.eval_time` shorter than the
    /// hierarchy.
    pub fn on(&self, placement: Placement<'_>) -> Result<RuntimeReport, SimError> {
        let layout = &self.config.base;
        match placement {
            Placement::Pool(runtime) => {
                let shared = runtime.host_all(layout.n_ranks(), self.tracer.steal_probe());
                let (outs, stats) = runtime.drive(&shared, |rank, _| self.machine(rank));
                let outs = outs.into_iter().map(|(_, out)| out).collect();
                Ok(RuntimeReport::assemble(outs, stats))
            }
            Placement::Net {
                runtime,
                driver,
                workers,
            } => Ok(driver.drive(runtime, self, workers)),
            Placement::Sim { cost, seed } => {
                assert!(
                    cost.eval_time.len() >= layout.n_levels(),
                    "simulated run: `eval_time` does not fit the hierarchy"
                );
                let mut service = vec![0.0; layout.n_ranks()];
                service[PHONEBOOK] = cost.phonebook_service_time;
                service[layout.collector_rank(0)..layout.first_controller_rank()]
                    .fill(cost.collector_service_time);
                let sim = Sim::new(seed, cost.latency, cost.eval_jitter, service);
                let charge = ChargeEvals {
                    secs: cost.eval_time.clone(),
                    meter: Arc::clone(&sim.meter),
                };
                let timed = Hooked::new(self.factory, charge);
                let run = Run {
                    factory: &timed,
                    ..*self
                };
                let out = sim.run(cost.poll_budget, |rank| run.machine(rank))?;
                let mut busy_per_level = out.charged;
                busy_per_level.resize(layout.n_levels(), 0.0);
                Ok(RuntimeReport {
                    busy_per_level: Some(busy_per_level),
                    clocks: Some(out.clocks),
                    first_drop: out.first_drop,
                    ..RuntimeReport::assemble(out.run.results, out.run.stats)
                })
            }
        }
    }
}

/// Compatibility alias (ROADMAP item 7(d) removes it): a [`Run`] of
/// `config` at one collector per level on a [`Placement::Pool`] as wide
/// as the host.
pub fn run_parallel(
    factory: &dyn LevelFactory,
    config: &ParallelConfig,
    tracer: &Tracer,
) -> ParallelReport {
    let runtime = Runtime::for_host();
    let config = RuntimeConfig {
        base: config.clone(),
        n_workers: runtime.n_workers(),
        collector_shards: 1,
    };
    run_runtime_on(&runtime, factory, &config, tracer).report
}

/// Compatibility alias (ROADMAP item 7(d) removes it): a [`Run`] on a
/// fresh [`Placement::Pool`] of `config.n_workers` threads.
pub fn run_runtime(
    factory: &dyn LevelFactory,
    config: &RuntimeConfig,
    tracer: &Tracer,
) -> RuntimeReport {
    run_runtime_on(&Runtime::new(config.n_workers), factory, config, tracer)
}

/// Compatibility alias (ROADMAP item 7(d) removes it): a [`Run`] on
/// [`Placement::Pool`]`(runtime)`.
pub fn run_runtime_on(
    runtime: &Runtime,
    factory: &dyn LevelFactory,
    config: &RuntimeConfig,
    tracer: &Tracer,
) -> RuntimeReport {
    let run = Run::new(factory, config, tracer, None, None);
    run.on(Placement::Pool(runtime)).expect("a live run")
}

/// A 1-D Gaussian per level under a random-walk proposal of width 0.8:
/// the target of simulated runs with no model of their own (the scaling
/// studies, admission) and of the policy tests.
pub struct StandIn {
    pub(crate) means: Vec<f64>,
    pub(crate) sds: Vec<f64>,
    pub(crate) rho: Vec<usize>,
}

impl StandIn {
    /// One level per entry of `rho` (its subsampling rate), converging on
    /// `N(1, 0.5²)`: `mean_l = 1 − 0.5^(l+1)`, `sd_l = 0.5 + 0.5^(l+2)`.
    pub fn new(rho: Vec<usize>) -> Self {
        let levels = 1..=rho.len() as i32;
        Self {
            means: levels.clone().map(|l| 1.0 - 0.5f64.powi(l)).collect(),
            sds: levels.map(|l| 0.5 + 0.5f64.powi(l + 1)).collect(),
            rho,
        }
    }
}

impl LevelFactory for StandIn {
    fn n_levels(&self) -> usize {
        self.means.len()
    }
    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(GaussianTarget::new(
            vec![self.means[level]],
            self.sds[level],
        ))
    }
    fn proposal(&self, _level: usize) -> Box<dyn Proposal> {
        Box::new(GaussianRandomWalk::new(0.8))
    }
    fn subsampling_rate(&self, level: usize) -> usize {
        self.rho[level]
    }
    fn starting_point(&self, _level: usize) -> Vec<f64> {
        vec![0.0]
    }
}

/// Every `log_density` on level `l` charges `secs[l]` virtual seconds
/// to the polling rank.
struct ChargeEvals {
    secs: Vec<f64>,
    meter: Arc<Meter>,
}

impl EvalHook for ChargeEvals {
    fn eval(&self, level: usize, eval: impl FnOnce() -> f64) -> f64 {
        self.meter.charge(level, self.secs[level]);
        eval()
    }
}

/// What a simulated run costs in virtual time, and when to give it up.
#[derive(Clone, Debug)]
pub struct SimCost {
    /// Mean seconds per model evaluation, by level.
    pub eval_time: Vec<f64>,
    /// Lognormal jitter σ applied to each evaluation (0 = none).
    pub eval_jitter: f64,
    /// Seconds the phonebook spends per message it handles.
    pub phonebook_service_time: f64,
    /// Seconds a collector spends per message it handles, surplus
    /// corrections included: a level whose chains send faster than
    /// `1/collector_service_time` queues up without bound until
    /// `StopProducing` reaches them.
    pub collector_service_time: f64,
    /// Every delivery takes between `latency` and twice that (seconds),
    /// drawn from the seed.
    pub latency: f64,
    /// Polls after which the run fails with [`SimError::PollBudget`].
    pub poll_budget: usize,
}

/// What the policy tests share — `tests` below, `scheduler::tests` and
/// `net::tests`: the fixture and the executors the machines are driven
/// with, so one set of assertions covers the pool and the simulator.
#[cfg(test)]
pub(crate) mod policy {
    use super::*;

    /// Analytic Gaussian hierarchy (same targets as the core test
    /// suite, `ρ = 3`): the simulator's stand-in with explicit moments.
    pub(crate) use super::StandIn as GaussianHierarchy;

    impl GaussianHierarchy {
        pub(crate) fn two_level() -> Self {
            Self {
                means: vec![0.5, 1.0],
                sds: vec![0.6, 0.5],
                rho: vec![3; 2],
            }
        }

        pub(crate) fn three_level() -> Self {
            Self {
                means: vec![0.6, 0.9, 1.0],
                sds: vec![0.65, 0.55, 0.5],
                rho: vec![3; 3],
            }
        }
    }

    /// The placement a policy test drives the machines on.
    #[derive(Clone, Copy, Debug)]
    pub(crate) enum Exec {
        /// [`Placement::Pool`] of `workers` threads.
        Pool { workers: usize },
        /// [`Placement::Sim`]: millisecond evaluations, delivery delays of
        /// the same order picked by `seed`.
        Sim { seed: u64 },
    }

    /// Millisecond evaluations with 30 % jitter, deliveries of 2–4 ms,
    /// 10 µs of bookkeeping per message.
    pub(crate) fn sim_cost(n_levels: usize) -> SimCost {
        SimCost {
            eval_time: vec![1e-3; n_levels],
            eval_jitter: 0.3,
            phonebook_service_time: 1e-5,
            collector_service_time: 1e-5,
            latency: 2e-3,
            poll_budget: usize::MAX,
        }
    }

    /// The executors every policy test runs under: two pools and the
    /// simulator.
    pub(crate) const EXECS: [Exec; 3] = [
        Exec::Pool { workers: 1 },
        Exec::Pool { workers: 2 },
        Exec::Sim { seed: 5 },
    ];

    impl Exec {
        pub(crate) fn run(self, h: &GaussianHierarchy, config: &ParallelConfig) -> ParallelReport {
            self.run_ckpt(h, config, &Tracer::disabled(), None, None)
        }

        pub(crate) fn run_ckpt(
            self,
            h: &GaussianHierarchy,
            config: &ParallelConfig,
            tracer: &Tracer,
            checkpoint: Option<&ParallelCheckpoint<'_>>,
            resume: Option<&RunSnapshot>,
        ) -> ParallelReport {
            let (pool, cost);
            let placement = match self {
                Exec::Pool { workers } => {
                    pool = Runtime::new(workers);
                    Placement::Pool(&pool)
                }
                Exec::Sim { seed } => {
                    cost = sim_cost(config.n_levels());
                    Placement::Sim { cost: &cost, seed }
                }
            };
            let config = RuntimeConfig {
                base: config.clone(),
                n_workers: 1,
                collector_shards: 1,
            };
            let run = Run::new(h, &config, tracer, checkpoint, resume);
            let done = run.on(placement).expect("simulated run finishes");
            done.report
        }
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

    /// On a configuration where `exec` is deterministic: a run repeats
    /// to the bit, checkpointing every `every` top-level corrections
    /// does not perturb it, and resuming from each snapshot written
    /// reproduces it.
    pub(crate) fn resume_from_every_snapshot_is_bit_identical(
        exec: Exec,
        h: &GaussianHierarchy,
        mut config: ParallelConfig,
        every: usize,
    ) {
        use std::sync::Mutex;
        use uq_mlmcmc::store::RunStore;

        config.load_balancing = false;
        config.record_samples = true;
        let baseline = exec.run(h, &config);
        assert_reports_identical(&baseline, &exec.run(h, &config));

        let dir = std::env::temp_dir().join(format!("uq-ckpt-{exec:?}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).unwrap();
        let hashes: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let hook = |_done: usize, hash: &str| hashes.lock().unwrap().push(hash.to_string());
        let spec = ParallelCheckpoint {
            store: &store,
            config_hash: 99,
            every,
            on_snapshot: Some(&hook),
            stop: None,
        };
        let off = Tracer::disabled();
        let checkpointed = exec.run_ckpt(h, &config, &off, Some(&spec), None);
        // checkpointing itself must not perturb the run
        assert_reports_identical(&baseline, &checkpointed);

        let hashes = hashes.into_inner().unwrap();
        // one cut per tick on every executor (DESIGN §7.3)
        let top = config.samples_per_level[config.n_levels() - 1];
        assert_eq!(hashes.len(), (top - 1) / every, "{exec:?}: snapshots");
        for hash in &hashes {
            let (snap, cfg) = store.get_snapshot(hash).unwrap();
            assert_eq!(cfg, 99);
            let resumed = exec.run_ckpt(h, &config, &off, None, Some(&snap));
            assert_reports_identical(&baseline, &resumed);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod tests {
    use super::policy::{Exec, GaussianHierarchy, EXECS};
    use super::*;

    #[test]
    fn two_level_runtime_run_completes() {
        for exec in EXECS {
            let config = ParallelConfig::new(vec![2000, 800], vec![1, 1]);
            let report = exec.run(&GaussianHierarchy::two_level(), &config);
            assert_eq!(report.levels[0].n_samples, 2000, "{exec:?}");
            assert_eq!(report.levels[1].n_samples, 800, "{exec:?}");
            assert!(report.total_evaluations() >= 2800, "{exec:?}");
        }
    }

    #[test]
    fn three_level_estimate_matches_truth() {
        // the estimate's σ was 0.028–0.029 on each of the three placements
        // at N = 30 000 / 4 000 / 1 500 (120 config seeds each, this test
        // with the seed varied), where ±0.08 was 2.8 σ; four times the
        // samples halve σ, so the band is ≈ 5.5 σ (the level-0 and level-1
        // means, σ 0.010 and 0.016 at the old N, sit at ≥ 12 σ)
        for exec in EXECS {
            let mut config = ParallelConfig::new(vec![120_000, 16_000, 6_000], vec![2, 2, 1]);
            config.burn_in = vec![300, 100, 50];
            let report = exec.run(&GaussianHierarchy::three_level(), &config);
            let est = report.expectation()[0];
            assert!(
                (est - 1.0).abs() < 0.08,
                "{exec:?}: telescoping estimate {est}"
            );
            // correction means per level
            assert!((report.levels[0].mean_correction[0] - 0.6).abs() < 0.08);
            assert!((report.levels[1].mean_correction[0] - 0.3).abs() < 0.1);
        }
    }

    #[test]
    fn three_level_ledger_correction_means_match_truth_sequentially_and_in_virtual_time() {
        // the one path no exactness suite covers: a mid level whose own
        // steps read their mates while its serve legs lease without one.
        // σ of each level's mean, measured over 120 seeds (this
        // configuration, the seed varied): sequential 0.0085 / 0.0108 /
        // 0.0141, simulated 0.0084 / 0.0115 / 0.0151, centred on the
        // truth within 0.0013. Each band is ≈ 5 σ of the larger spread.
        use uq_mlmcmc::ledger::PairingMode;
        use uq_mlmcmc::{run_sequential, MlmcmcConfig};
        let (n, burn_in) = (vec![40_000, 8_000, 3_000], vec![300, 100, 50]);
        let h = GaussianHierarchy::three_level();
        let config = MlmcmcConfig::new(n.clone())
            .with_burn_in(burn_in.clone())
            .with_pairing(PairingMode::Ledger);
        let sequential = run_sequential(&h, &config, &mut StdRng::seed_from_u64(7));
        let mut config = ParallelConfig::new(n, vec![2, 2, 1]);
        config.burn_in = burn_in;
        let simulated = Exec::Sim { seed: 5 }.run(&h, &config);
        let means = [
            sequential
                .levels
                .iter()
                .map(|l| l.mean_correction[0])
                .collect(),
            simulated
                .levels
                .iter()
                .map(|l| l.mean_correction[0])
                .collect::<Vec<_>>(),
        ];
        for (driver, means) in ["sequential", "simulated"].iter().zip(means) {
            for (level, (mean, (truth, band))) in means
                .iter()
                .zip([(0.6, 0.045), (0.3, 0.055), (0.1, 0.075)])
                .enumerate()
            {
                assert!(
                    (mean - truth).abs() < band,
                    "{driver}, level {level}: mean correction {mean}"
                );
            }
        }
    }

    #[test]
    fn load_balancer_disabled_still_completes() {
        for exec in EXECS {
            let mut config = ParallelConfig::new(vec![3000, 600, 200], vec![1, 1, 1]);
            config.load_balancing = false;
            let report = exec.run(&GaussianHierarchy::three_level(), &config);
            assert_eq!(report.reassignments, 0, "{exec:?}");
            assert_eq!(report.levels[2].n_samples, 200, "{exec:?}");
        }
    }

    #[test]
    fn recording_returns_samples_and_pairs() {
        for exec in EXECS {
            let mut config = ParallelConfig::new(vec![400, 150, 60], vec![1, 1, 1]);
            config.record_samples = true;
            let report = exec.run(&GaussianHierarchy::three_level(), &config);
            assert_eq!(report.levels[0].theta_samples.len(), 400, "{exec:?}");
            assert_eq!(report.levels[1].correction_pairs.len(), 150, "{exec:?}");
            assert!(report.levels[0].correction_pairs.is_empty());
            // accepted coarse proposals appear as identical pairs
            let pairs = &report.levels[1].correction_pairs;
            assert!(pairs.iter().any(|(c, f)| c == f), "{exec:?}");
        }
    }

    #[test]
    fn tracer_captures_eval_spans() {
        for exec in EXECS {
            let mut config = ParallelConfig::new(vec![300, 100, 40], vec![1, 1, 1]);
            config.burn_in = vec![50, 20, 10];
            let tracer = Tracer::new();
            let h = GaussianHierarchy::three_level();
            let _ = exec.run_ckpt(&h, &config, &tracer, None, None);
            let events = tracer.events();
            let has = |pred: fn(&SpanKind) -> bool| events.iter().any(|e| pred(&e.kind));
            assert!(has(|k| matches!(k, SpanKind::Burnin { .. })), "{exec:?}");
            assert!(has(|k| matches!(k, SpanKind::Eval { .. })), "{exec:?}");
        }
    }

    #[test]
    fn runtime_resume_from_every_snapshot_is_bit_identical() {
        // a single pool worker is deterministic even on three levels
        // (one cooperative scheduler, deterministic poll order), so the
        // full hierarchy is exercised here — including checkpoints that
        // land mid-burn-in on slow levels
        let mut config = ParallelConfig::new(vec![300, 120, 50], vec![1, 1, 1]);
        config.burn_in = vec![30, 20, 10];
        policy::resume_from_every_snapshot_is_bit_identical(
            EXECS[0],
            &GaussianHierarchy::three_level(),
            config,
            9,
        );
    }

    #[test]
    fn every_tick_is_one_cut_behind_a_collector_backlog() {
        // a collector twenty times slower than an evaluation: the top one
        // drains its corrections long after they were sent, and sends
        // several ticks while the barrier of the first is open. Each is
        // still one cut
        use std::sync::atomic::{AtomicUsize, Ordering};
        use uq_mlmcmc::store::RunStore;
        let (model, off) = (StandIn::new(vec![3, 0]), Tracer::disabled());
        let mut config = pool_config(vec![200, 60], vec![2, 2], 1);
        config.base.load_balancing = false;
        let cost = SimCost {
            collector_service_time: 2e-2,
            ..policy::sim_cost(2)
        };
        let dir = std::env::temp_dir().join(format!("uq-ticks-{}", std::process::id()));
        let store = RunStore::open(&dir).unwrap();
        let cuts = AtomicUsize::new(0);
        let hook = |_done: usize, _hash: &str| {
            cuts.fetch_add(1, Ordering::SeqCst);
        };
        let every = 5;
        let spec = ParallelCheckpoint {
            store: &store,
            config_hash: 1,
            every,
            on_snapshot: Some(&hook),
            stop: None,
        };
        for seed in 0..4 {
            cuts.store(0, Ordering::SeqCst);
            let run = Run::new(&model, &config, &off, Some(&spec), None);
            run.on(Placement::Sim { cost: &cost, seed })
                .expect("an unbounded simulated run finishes");
            let cuts = cuts.load(Ordering::SeqCst);
            assert_eq!(cuts, (60 - 1) / every, "delivery seed {seed}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn pool_config(samples: Vec<usize>, chains: Vec<usize>, workers: usize) -> RuntimeConfig {
        let mut config = RuntimeConfig::new(samples, chains);
        config.n_workers = workers;
        config
    }

    #[test]
    fn four_worker_balanced_estimate_matches_truth() {
        // the configuration of ROADMAP 8(ii), and its 4-worker watch for
        // 8(iii). The estimate's σ was 0.037 at N = 20 000 / 2 500 / 900
        // (200 seeds, 4 workers, balancer on, this test with the seed
        // varied), where ±0.1 was 2.7 σ and failed 2 runs in 200; four
        // times the samples halve σ, so the band is ≈ 5.4 σ (re-measured
        // at this N over 100 seeds: σ 0.019, 5.3 σ)
        let h = GaussianHierarchy::three_level();
        let mut config = pool_config(vec![80_000, 10_000, 3_600], vec![2, 1, 1], 4);
        config.base.burn_in = vec![200, 80, 40];
        let r = run_runtime(&h, &config, &Tracer::disabled());
        let est = r.report.expectation()[0];
        assert!((est - 1.0).abs() < 0.1, "estimate {est}");
        for lvl in &r.report.levels {
            for &v in &lvl.var_correction {
                assert!(v.is_finite() && v >= 0.0);
            }
        }
    }

    #[test]
    fn many_virtual_ranks_on_few_workers() {
        // more controllers than any machine has cores: 60 chains (65
        // ranks) on 3 worker threads
        let h = GaussianHierarchy::three_level();
        let config = pool_config(vec![3000, 900, 300], vec![30, 20, 10], 3);
        let r = run_runtime(&h, &config, &Tracer::disabled());
        assert_eq!(r.report.n_ranks, 2 + 3 + 60);
        assert_eq!(r.report.levels[0].n_samples, 3000);
        assert_eq!(r.report.levels[2].n_samples, 300);
        assert!(r.report.expectation()[0].is_finite());
        // batching must actually happen under this much traffic
        assert!(r.phonebook.max_batch >= 2, "stats {:?}", r.phonebook);
    }

    /// The virtual-time scaling tests' fixture, after `edit`: three levels
    /// at Table-3-like costs on the [`StandIn`] target, deliveries free,
    /// the delivery seed the run's own.
    fn scaling(edit: impl FnOnce(&mut ParallelConfig, &mut SimCost)) -> RuntimeReport {
        let mut config = pool_config(vec![1000, 100, 10], vec![2, 2, 1], 1);
        config.base.burn_in = vec![50, 20, 10];
        config.base.load_balancing = false;
        config.base.seed = 1;
        let mut cost = SimCost {
            eval_time: vec![0.003, 0.045, 0.93],
            eval_jitter: 0.0,
            phonebook_service_time: 1e-4,
            collector_service_time: 0.0,
            latency: 0.0,
            poll_budget: usize::MAX,
        };
        edit(&mut config.base, &mut cost);
        let (model, off) = (StandIn::new(vec![10, 5, 0]), Tracer::disabled());
        let seed = config.base.seed;
        let placement = Placement::Sim { cost: &cost, seed };
        let run = Run::new(&model, &config, &off, None, None);
        run.on(placement)
            .expect("an unbounded simulated run finishes")
    }

    fn makespan(edit: impl FnOnce(&mut ParallelConfig, &mut SimCost)) -> f64 {
        scaling(edit).report.elapsed
    }

    fn evals(r: &RuntimeReport) -> Vec<usize> {
        r.report.levels.iter().map(|l| l.evaluations).collect()
    }

    #[test]
    fn simulation_terminates_and_counts_evals() {
        let r = scaling(|_, _| {});
        // every level runs at least its own samples
        let own = [1000, 100, 10];
        assert!(r.report.elapsed > 0.0 && evals(&r).iter().zip(own).all(|(&e, n)| e >= n));
        // same seed, same machines: the same result to the bit
        let again = scaling(|_, _| {});
        assert_eq!(r.clocks, again.clocks);
        assert_eq!(r.busy_per_level, again.busy_per_level);
        assert_eq!(evals(&r), evals(&again));
    }

    #[test]
    fn a_cost_or_a_stand_in_shorter_than_the_hierarchy_is_refused_before_any_rank_is_built() {
        let refusal = |edit: fn(&mut ParallelConfig, &mut SimCost)| {
            let why = std::panic::catch_unwind(|| scaling(edit)).expect_err("refused");
            *why.downcast::<&str>().expect("a literal message")
        };
        let why = refusal(|_, cost| cost.eval_time.truncate(2));
        assert!(why.contains("`eval_time` does not fit"), "{why}");
        // a stand-in has one level per `rho` entry: three for four
        let why = refusal(|config, cost| {
            *config = ParallelConfig::new(vec![10; 4], vec![1; 4]);
            cost.eval_time.push(1.0);
        });
        assert!(
            why.contains("more levels configured than the factory"),
            "{why}"
        );
    }

    #[test]
    fn subsampling_inflates_coarse_evals() {
        // every level-1 step needs a level-0 serve of >= 10 steps
        let evals = evals(&scaling(|_, _| {}));
        assert!(evals[0] >= 5 * evals[1], "evals {evals:?}");
    }

    #[test]
    fn more_chains_reduce_makespan() {
        let slow = makespan(|_, _| {});
        let fast = makespan(|config, _| config.chains_per_level = vec![8, 4, 2]);
        assert!(fast < slow, "more chains, slower: {fast} vs {slow}");
    }

    #[test]
    fn strong_scaling_saturates() {
        // speedup from 4x chains at small chain counts should exceed the
        // speedup from 4x chains at very large chain counts
        let mk = |mult: usize| {
            makespan(|config, _| {
                config.samples_per_level = vec![2000, 200, 20];
                config.chains_per_level = vec![2 * mult, mult, mult];
            })
        };
        let (small, large) = (mk(1) / mk(4), mk(16) / mk(64));
        assert!(small > large, "speedups {small:.2} then {large:.2}");
    }

    #[test]
    fn phonebook_serialization_limits_throughput() {
        let cheap = |phonebook_service_time: f64| {
            makespan(|config, cost| {
                config.samples_per_level = vec![5000, 50, 5];
                config.chains_per_level = vec![32, 2, 1];
                cost.eval_time = vec![1e-4, 0.045, 0.93]; // very fast coarse model
                cost.phonebook_service_time = phonebook_service_time;
            })
        };
        // a fine step's nested serves put some twenty phonebook messages
        // on its critical path: at 50 ms each they outweigh its 0.93 s
        // evaluation (5 ms would vanish in the spread between trajectories)
        let (free, congested) = (cheap(0.0), cheap(5e-2));
        assert!(congested > 1.25 * free, "{congested} vs {free}");
    }

    #[test]
    fn load_balancing_helps_unbalanced_allocation() {
        // deliberately starve level 1 of chains
        let starved = |load_balancing: bool| {
            scaling(|config, _| {
                config.samples_per_level = vec![400, 400, 40];
                config.chains_per_level = vec![6, 1, 1];
                config.load_balancing = load_balancing;
            })
        };
        let (fixed, balanced) = (starved(false), starved(true));
        let (with, without) = (balanced.report.elapsed, fixed.report.elapsed);
        assert!(with <= without * 1.05, "LB hurt: {with} vs {without}");
        assert_eq!(fixed.phonebook.reassignments, 0);
        assert!(
            balanced.phonebook.reassignments > 0,
            "idle chains should move"
        );
    }

    #[test]
    fn jitter_changes_realization_not_scale() {
        let jittered = |seed: u64| {
            makespan(|config, cost| {
                config.seed = seed;
                cost.eval_jitter = 0.3;
            })
        };
        let (a, b) = (jittered(1), jittered(99));
        assert!(a != b && a / b < 3.0 && b / a < 3.0, "{a} vs {b}");
    }

    #[test]
    fn busy_fraction_is_sane() {
        // the share of five chains' time spent evaluating models
        let r = scaling(|_, _| {});
        let busy: f64 = r.busy_per_level.expect("simulated").iter().sum();
        let fraction = busy / (5.0 * r.report.elapsed);
        assert!(fraction > 0.0 && fraction <= 1.0, "{fraction}");
    }
}
