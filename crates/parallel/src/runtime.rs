//! Cooperative virtual-rank runtime: many suspendable ranks per worker
//! thread — the one live executor.
//!
//! A **virtual rank** is an explicitly suspendable state machine
//! implementing [`VirtualRank`] — each [`poll`](VirtualRank::poll) runs
//! until the rank would block on a receive, then returns a *wait
//! predicate* ([`Poll::Wait`]); the rank is re-polled only when a
//! matching message arrives. A small pool of worker threads (typically
//! far fewer than ranks) drives the machines through per-worker run
//! queues with message-arrival wakeups, so hundreds to thousands of
//! controllers run **live** on a handful of cores. Every live
//! [`crate::Placement`] is this pool: `Pool` hosts a whole universe on
//! one, each process of a `Net` run hosts its share of the ranks on one
//! and hands sends to ranks it does not host to its socket relay.
//!
//! Delivery semantics (the MPI subset of DESIGN §2): per-rank FIFO
//! queues, non-blocking sends, out-of-order messages buffered in arrival
//! order and re-delivered first ([`VCtx::try_recv_match`]); sends to
//! exited ranks are dropped and counted
//! ([`RuntimeStats::dropped_sends`]), and so is what a rank left unread
//! when it exited.
//!
//! Scheduling is deterministic in structure (rank `r` is *homed* on
//! worker `r % n_workers`, run queues are FIFO) but not in timing: wakeup
//! interleavings across workers depend on the OS. An idle worker
//! **steals** runnable ranks from the longest run queue (machines live
//! in per-rank cells and are `Send`, so they travel with their rank),
//! which bounds the straggling a hot home worker can cause; with a
//! single worker no stealing is possible, so single-worker runs remain
//! exactly deterministic. The MLMCMC role machines live in
//! [`crate::roles`]; [`crate::sim`] polls the same machines in virtual
//! time.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A delivered message with its sender rank.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    pub from: usize,
    pub msg: M,
}

/// Count a send that reached nobody (`why` names the reason) in
/// `dropped`, the executor's tally. Debug builds surface the first loss
/// per run: teardown legitimately drops a handful, the count tells the
/// rest.
fn note_drop(dropped: &AtomicUsize, from: usize, to: usize, why: &str) {
    let prev = dropped.fetch_add(1, Ordering::Relaxed);
    #[cfg(debug_assertions)]
    if prev == 0 {
        eprintln!(
            "uq-parallel: dropping send from rank {from} to {why} rank {to} \
             (further drops counted silently)"
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = (prev, from, to, why);
}

/// Wait predicate returned by [`Poll::Wait`]: `true` for any message that
/// should wake the suspended rank.
pub type WaitPred<M> = Box<dyn FnMut(&Envelope<M>) -> bool + Send>;

/// What a virtual rank decided after one poll.
pub enum Poll<M, R> {
    /// The rank has more work it can do right now: re-enqueue it on its
    /// worker's run queue (after everything already queued — one unit of
    /// work per poll keeps scheduling fair across the ranks sharing a
    /// worker).
    Ready,
    /// The rank would block on a receive: suspend until a message
    /// matching the predicate arrives. The rank must have drained its
    /// context with (at least) the same predicate before returning this;
    /// the runtime re-checks pending messages under the slot lock, so the
    /// install-vs-arrival race cannot lose a wakeup.
    Wait(WaitPred<M>),
    /// The rank finished with a result; it receives no further polls and
    /// subsequent sends to it are counted as dropped.
    Exit(R),
}

/// A suspendable virtual rank (one role state machine).
pub trait VirtualRank<M: Send> {
    /// Result type collected by [`Runtime::run`] when the rank exits.
    type Output;

    /// Run until the next suspension point.
    fn poll(&mut self, ctx: &mut VCtx<'_, M>) -> Poll<M, Self::Output>;
}

/// Scheduling state of one virtual rank.
enum SlotState<M> {
    /// On its worker's run queue or currently being polled.
    Runnable,
    /// Suspended on a wait predicate.
    Waiting(WaitPred<M>),
    /// Exited; further sends are dropped (and counted), as is what the
    /// rank left unread in its queue.
    Exited,
    /// Hosted by another process: sends from ranks hosted here go to the
    /// relay.
    Remote,
}

/// Shared per-rank mailbox + scheduling state (one lock per rank: senders
/// contend only with the rank's own worker, never with each other
/// globally).
struct RankSlot<M> {
    queue: VecDeque<Envelope<M>>,
    state: SlotState<M>,
}

struct Worker {
    run_queue: Mutex<VecDeque<usize>>,
    cv: Condvar,
}

/// Where a send to a rank this pool does not host goes: `(to, envelope)`.
pub(crate) type Relay<M> = Box<dyn Fn(usize, Envelope<M>) + Send + Sync>;

/// One run's mailboxes and run queues: a slot for every rank of the
/// universe, of which this pool hosts some ([`Runtime::host`]). The
/// transport that hosts the others holds it too: its readers
/// [`deliver`](Self::deliver) into it.
pub(crate) struct Shared<M> {
    slots: Vec<Mutex<RankSlot<M>>>,
    workers: Vec<Worker>,
    relay: Relay<M>,
    /// Hosted ranks that have not exited yet.
    live: AtomicUsize,
    /// Every hosted rank exited — workers drain and return.
    done: AtomicBool,
    dropped_sends: AtomicUsize,
    polls: AtomicUsize,
    wakeups: AtomicUsize,
    steals: AtomicUsize,
    /// Observer invoked as `(stolen_rank, victim_worker)` after a
    /// successful steal. Pure observation on the thief's idle path — it
    /// runs after the victim's queue lock is released and must not
    /// touch rank state (the obs layer uses it to mark steal events).
    steal_probe: Option<StealProbe>,
    /// When the run began: what [`Port::now`] counts from.
    start: Instant,
}

/// Steal observer callback: `(stolen_rank, victim_worker)`.
pub(crate) type StealProbe = Arc<dyn Fn(usize, usize) + Send + Sync>;

impl<M: Send> Shared<M> {
    fn worker_of(&self, rank: usize) -> &Worker {
        &self.workers[rank % self.workers.len()]
    }

    fn enqueue(&self, rank: usize) {
        let worker = self.worker_of(rank);
        let mut queue = worker.run_queue.lock().expect("runtime poisoned");
        queue.push_back(rank);
        // unlock first: a worker woken under the lock blocks on it again
        drop(queue);
        worker.cv.notify_one();
    }

    /// Queue `env` for `to`, waking it when its wait predicate matches.
    /// A destination that exited or is out of range drops the message
    /// and counts it; one hosted elsewhere gets it back.
    fn offer(&self, to: usize, env: Envelope<M>) -> Option<Envelope<M>> {
        // a stale rank index from the wire is counted, not fatal
        let Some(slot) = self.slots.get(to) else {
            note_drop(&self.dropped_sends, env.from, to, "out-of-range");
            return None;
        };
        let wake = {
            let mut slot = slot.lock().expect("runtime poisoned");
            match &mut slot.state {
                SlotState::Remote => return Some(env),
                SlotState::Exited => {
                    note_drop(&self.dropped_sends, env.from, to, "exited");
                    return None;
                }
                SlotState::Waiting(pred) => {
                    let matched = pred(&env);
                    slot.queue.push_back(env);
                    if matched {
                        slot.state = SlotState::Runnable;
                    }
                    matched
                }
                SlotState::Runnable => {
                    slot.queue.push_back(env);
                    false
                }
            }
        };
        if wake {
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            self.enqueue(to);
        }
        None
    }

    /// A message from outside the pool (the transport's reader). One
    /// for a rank that is not hosted here is dropped and counted —
    /// relaying it again would bounce it between processes.
    pub(crate) fn deliver(&self, to: usize, env: Envelope<M>) {
        if let Some(env) = self.offer(to, env) {
            note_drop(&self.dropped_sends, env.from, to, "departed");
        }
    }
}

impl<M> Shared<M> {
    /// End the run: every worker returns once its run queue is empty.
    fn stop_workers(&self) {
        self.done.store(true, Ordering::Release);
        for w in &self.workers {
            // taken so that a worker about to park sees the flag; a
            // poisoned lock serves that as well
            let _guard = w.run_queue.lock();
            w.cv.notify_all();
        }
    }
}

/// What a [`VCtx`] asks of the executor driving its rank: deliver a
/// message, hand over what has arrived, tell the time. The pool's
/// [`Shared`] mailboxes and the virtual-time executor ([`crate::sim`])
/// provide it, so one set of role machines runs under either.
pub(crate) trait Port<M> {
    /// Deliver `env` to rank `to`; never blocks. A destination that has
    /// exited or is out of range drops the message and counts it.
    fn send(&self, to: usize, env: Envelope<M>);

    /// Move everything queued for `rank` into `buffer`, in arrival order.
    fn pull(&self, rank: usize, buffer: &mut VecDeque<Envelope<M>>);

    /// Seconds since the run began as `rank` experiences them: wall-clock
    /// under the pool, the rank's virtual clock when simulated.
    fn now(&self, rank: usize) -> f64;
}

impl<M: Send> Port<M> for Shared<M> {
    fn send(&self, to: usize, env: Envelope<M>) {
        if let Some(env) = self.offer(to, env) {
            (self.relay)(to, env);
        }
    }

    /// One lock acquisition.
    fn pull(&self, rank: usize, buffer: &mut VecDeque<Envelope<M>>) {
        let mut slot = self.slots[rank].lock().expect("runtime poisoned");
        buffer.extend(slot.queue.drain(..));
    }

    fn now(&self, _rank: usize) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Per-poll communication handle of a virtual rank: non-blocking sends
/// and receives over whichever executor is driving the rank.
pub struct VCtx<'a, M: Send> {
    rank: usize,
    size: usize,
    port: &'a dyn Port<M>,
    /// Rank-local buffer of already-pulled messages (arrival order).
    buffer: &'a mut VecDeque<Envelope<M>>,
}

impl<'a, M: Send> VCtx<'a, M> {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        port: &'a dyn Port<M>,
        buffer: &'a mut VecDeque<Envelope<M>>,
    ) -> Self {
        Self {
            rank,
            size,
            port,
            buffer,
        }
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of virtual ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `msg` to rank `to`; never blocks. Sends to exited ranks and
    /// to out-of-range rank indices are dropped and counted
    /// ([`RuntimeStats::dropped_sends`] under the pool).
    pub fn send(&self, to: usize, msg: M) {
        self.port.send(
            to,
            Envelope {
                from: self.rank,
                msg,
            },
        );
    }

    /// Seconds since the run began — the only clock policy code may
    /// read, so that a simulated run can supply a virtual one.
    pub fn now(&self) -> f64 {
        self.port.now(self.rank)
    }

    /// Move everything that has arrived into the rank-local buffer.
    fn pull(&mut self) {
        self.port.pull(self.rank, self.buffer);
    }

    /// Non-blocking receive of the next message in arrival order.
    pub fn try_recv(&mut self) -> Option<Envelope<M>> {
        if self.buffer.is_empty() {
            self.pull();
        }
        self.buffer.pop_front()
    }

    /// Non-blocking receive of the first message satisfying `pred`;
    /// non-matching messages stay buffered in arrival order.
    pub fn try_recv_match(
        &mut self,
        mut pred: impl FnMut(&Envelope<M>) -> bool,
    ) -> Option<Envelope<M>> {
        self.pull();
        let pos = self.buffer.iter().position(&mut pred)?;
        self.buffer.remove(pos)
    }
}

/// Counters describing one runtime execution. The stats returned by
/// [`Runtime::run`] cover **that run only** — a [`Runtime`] reused
/// across runs resets them between invocations (regression-tested by
/// `stats_reset_between_runs_on_a_reused_pool`).
#[derive(Clone, Copy, Debug, Default)]
pub struct RuntimeStats {
    /// Total `poll` invocations across all ranks.
    pub polls: usize,
    /// Wakeups caused by a message matching a wait predicate.
    pub wakeups: usize,
    /// Sends to already-exited ranks (observable shutdown message loss).
    pub dropped_sends: usize,
    /// Runnable ranks taken from another worker's run queue by an idle
    /// worker (work stealing).
    pub steals: usize,
}

/// Counters of consecutive runs, added up (a net process's segments).
impl std::ops::AddAssign for RuntimeStats {
    fn add_assign(&mut self, later: Self) {
        self.polls += later.polls;
        self.wakeups += later.wakeups;
        self.dropped_sends += later.dropped_sends;
        self.steals += later.steals;
    }
}

/// Results of a runtime execution.
pub struct RuntimeRun<R> {
    /// Per-rank outputs, indexed by rank.
    pub results: Vec<R>,
    pub stats: RuntimeStats,
}

/// The cooperative runtime. One `Runtime` is a reusable worker pool — a
/// width and nothing else: [`run`](Self::run) may be invoked repeatedly,
/// also concurrently (e.g. across the points of a scaling sweep, or the
/// lanes of the service), and each invocation's [`RuntimeStats`]
/// describe that run alone.
pub struct Runtime {
    n_workers: usize,
}

impl Runtime {
    /// A runtime driving its virtual ranks with `n_workers` OS threads.
    ///
    /// # Panics
    /// Panics if `n_workers == 0`.
    pub fn new(n_workers: usize) -> Self {
        assert!(n_workers > 0, "Runtime: need at least one worker");
        Self { n_workers }
    }

    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// A pool as wide as this host ([`std::thread::available_parallelism`]);
    /// a run never uses more workers than it hosts ranks.
    pub fn for_host() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Run `n_ranks` virtual ranks to completion and gather their outputs
    /// by rank index. `factory(rank, size)` builds each rank's state
    /// machine lazily on first poll — usually on the rank's home worker
    /// (`r % n_workers`), but possibly on a stealing worker, so machines
    /// must be `Send`. Between polls a machine rests in its rank's cell;
    /// whichever worker pops the rank (home or thief) takes it from
    /// there, so a machine is only ever touched by one thread at a time.
    ///
    /// # Panics
    /// Propagates panics from worker threads.
    pub fn run<'a, M, R, F>(&self, n_ranks: usize, factory: F) -> RuntimeRun<R>
    where
        M: Send + 'a,
        R: Send + 'a,
        F: Fn(usize, usize) -> Box<dyn VirtualRank<M, Output = R> + Send + 'a> + Sync,
    {
        let (mut outs, stats) = self.drive(&self.host_all(n_ranks, None), factory);
        outs.sort_unstable_by_key(|&(rank, _)| rank);
        RuntimeRun {
            results: outs.into_iter().map(|(_, out)| out).collect(),
            stats,
        }
    }

    /// [`host`](Self::host) with the whole universe on this pool: nothing
    /// is ever relayed.
    pub(crate) fn host_all<M: Send>(
        &self,
        n_ranks: usize,
        steal_probe: Option<StealProbe>,
    ) -> Arc<Shared<M>> {
        let relay = Box::new(|_, _| unreachable!("every rank is hosted here"));
        self.host(n_ranks, 0..n_ranks, relay, steal_probe)
    }

    /// The mailboxes of a run over `size` ranks of which this pool hosts
    /// `hosted`, every one of them runnable; a hosted rank's send to any
    /// other rank is handed to `relay`, and every steal is shown to
    /// `steal_probe`.
    ///
    /// # Panics
    /// Panics if `hosted` is empty.
    pub(crate) fn host<M: Send>(
        &self,
        size: usize,
        hosted: impl IntoIterator<Item = usize>,
        relay: Relay<M>,
        steal_probe: Option<StealProbe>,
    ) -> Arc<Shared<M>> {
        let mut slots: Vec<_> = (0..size)
            .map(|_| RankSlot {
                queue: VecDeque::new(),
                state: SlotState::Remote,
            })
            .collect();
        let hosted: Vec<usize> = hosted.into_iter().collect();
        assert!(!hosted.is_empty(), "Runtime: need at least one rank");
        let n_workers = self.n_workers.min(hosted.len());
        // every rank starts runnable, queued in rank order on its worker
        let mut run_queues = vec![VecDeque::new(); n_workers];
        for &rank in &hosted {
            slots[rank].state = SlotState::Runnable;
            run_queues[rank % n_workers].push_back(rank);
        }
        Arc::new(Shared {
            slots: slots.into_iter().map(Mutex::new).collect(),
            workers: run_queues
                .into_iter()
                .map(|queue| Worker {
                    run_queue: Mutex::new(queue),
                    cv: Condvar::new(),
                })
                .collect(),
            relay,
            live: AtomicUsize::new(hosted.len()),
            done: AtomicBool::new(false),
            dropped_sends: AtomicUsize::new(0),
            polls: AtomicUsize::new(0),
            wakeups: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
            steal_probe,
            start: Instant::now(),
        })
    }

    /// Poll the ranks `shared` hosts until every one has exited; returns
    /// each `(rank, output)` and the run's counters. `factory` as in
    /// [`run`](Self::run).
    ///
    /// # Panics
    /// Propagates panics from worker threads.
    pub(crate) fn drive<'a, M, R, F>(
        &self,
        shared: &Shared<M>,
        factory: F,
    ) -> (Vec<(usize, R)>, RuntimeStats)
    where
        M: Send + 'a,
        R: Send + 'a,
        F: Fn(usize, usize) -> Box<dyn VirtualRank<M, Output = R> + Send + 'a> + Sync,
    {
        // machine cells: one per rank, taken by whichever worker polls it
        let cells: Vec<Mutex<Option<Entry<'a, M, R>>>> =
            shared.slots.iter().map(|_| Mutex::new(None)).collect();
        let mut outs = Vec::new();
        watchdog::watch(shared, || {
            std::thread::scope(|scope| {
                let (cells, factory) = (&cells, &factory);
                let handles: Vec<_> = (0..shared.workers.len())
                    .map(|worker_id| {
                        scope.spawn(move || worker_loop(shared, cells, worker_id, factory))
                    })
                    .collect();
                for handle in handles {
                    outs.extend(handle.join().expect("runtime worker panicked"));
                }
            })
        });
        // what an exited rank left unread was lost: shutdown loss must be
        // observable, not silent (every other queue is empty by now)
        let queued = |slot: &Mutex<RankSlot<M>>| slot.lock().expect("runtime poisoned").queue.len();
        let unread: usize = shared.slots.iter().map(queued).sum();
        // per-run counters: `shared` is built afresh for every run, so a
        // reused pool cannot leak a previous run's polls/steals into
        // this run's stats
        let stats = RuntimeStats {
            polls: shared.polls.load(Ordering::Relaxed),
            wakeups: shared.wakeups.load(Ordering::Relaxed),
            dropped_sends: shared.dropped_sends.load(Ordering::Relaxed) + unread,
            steals: shared.steals.load(Ordering::Relaxed),
        };
        (outs, stats)
    }
}

/// Outside this crate's unit tests a pool run is not watched: see the
/// test build's `watchdog` at the end of this file.
#[cfg(not(test))]
mod watchdog {
    pub(super) fn watch<M, T>(_shared: &super::Shared<M>, run: impl FnOnce() -> T) -> T {
        run()
    }
}

/// A rank's state machine plus its rank-local message buffer; rests in
/// the rank's cell between polls and travels with it when stolen.
struct Entry<'a, M: Send, R> {
    machine: Box<dyn VirtualRank<M, Output = R> + Send + 'a>,
    buffer: VecDeque<Envelope<M>>,
}

/// Makes a worker panic observable to its peers: without this, a panic
/// in one machine would leave the other workers parked forever instead
/// of letting the scope join propagate it.
struct PanicFence<'s, M>(&'s Shared<M>);

impl<M> Drop for PanicFence<'_, M> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop_workers();
        }
    }
}

/// Steal a runnable rank for `thief`: scan the other workers' queues and
/// pop from the back of the longest (the victim keeps its FIFO front).
fn try_steal<M: Send>(shared: &Shared<M>, thief: usize) -> Option<usize> {
    let n = shared.workers.len();
    let mut best: Option<(usize, usize)> = None; // (queue length, victim)
    for offset in 1..n {
        let victim = (thief + offset) % n;
        let len = shared.workers[victim]
            .run_queue
            .lock()
            .expect("runtime poisoned")
            .len();
        if len > 0 && best.is_none_or(|(l, _)| len > l) {
            best = Some((len, victim));
        }
    }
    let (_, victim) = best?;
    let rank = shared.workers[victim]
        .run_queue
        .lock()
        .expect("runtime poisoned")
        .pop_back();
    if let Some(rank) = rank {
        shared.steals.fetch_add(1, Ordering::Relaxed);
        if let Some(probe) = &shared.steal_probe {
            probe(rank, victim);
        }
    }
    rank
}

/// One worker: pop runnable ranks (own queue first, then steal from the
/// longest peer queue), poll their machines, handle the returned
/// suspension.
fn worker_loop<'a, M, R, F>(
    shared: &Shared<M>,
    cells: &[Mutex<Option<Entry<'a, M, R>>>],
    worker_id: usize,
    factory: &F,
) -> Vec<(usize, R)>
where
    M: Send + 'a,
    R: Send + 'a,
    F: Fn(usize, usize) -> Box<dyn VirtualRank<M, Output = R> + Send + 'a> + Sync,
{
    let mut outputs = Vec::new();
    let n_ranks = shared.slots.len();
    let worker = &shared.workers[worker_id];
    let _fence = PanicFence(shared);
    loop {
        // next runnable rank: own queue, else steal, else park — timed, so
        // that work queued behind a busy worker is noticed (own-queue
        // wakeups notify the condvar). 5 ms, far above a socket round
        // trip: the ranks of a net process mostly wait for frames, and a
        // tick that expires meanwhile is a wake-up that finds nothing
        let rank = {
            let mut next = None;
            while next.is_none() {
                if let Some(rank) = {
                    let mut queue = worker.run_queue.lock().expect("runtime poisoned");
                    queue.pop_front()
                } {
                    next = Some(rank);
                    break;
                }
                if shared.done.load(Ordering::Acquire) {
                    return outputs;
                }
                if let Some(rank) = try_steal(shared, worker_id) {
                    next = Some(rank);
                    break;
                }
                let queue = worker.run_queue.lock().expect("runtime poisoned");
                if queue.is_empty() && !shared.done.load(Ordering::Acquire) {
                    let _ = worker
                        .cv
                        .wait_timeout(queue, Duration::from_millis(5))
                        .expect("runtime poisoned");
                }
            }
            next.expect("runnable rank")
        };
        let mut entry = cells[rank]
            .lock()
            .expect("runtime poisoned")
            .take()
            .unwrap_or_else(|| Entry {
                machine: factory(rank, n_ranks),
                buffer: VecDeque::new(),
            });
        shared.polls.fetch_add(1, Ordering::Relaxed);
        let mut ctx = VCtx::new(rank, n_ranks, shared, &mut entry.buffer);
        match entry.machine.poll(&mut ctx) {
            Poll::Ready => {
                // park the machine before re-queueing: the next poll may
                // happen on a different worker
                *cells[rank].lock().expect("runtime poisoned") = Some(entry);
                shared.enqueue(rank);
            }
            Poll::Wait(mut pred) => {
                // Install the predicate under the slot lock, re-checking
                // messages that raced in after the rank last drained (and,
                // defensively, the rank-local buffer): a match means the
                // rank stays runnable instead of suspending.
                let matched_buffered = entry.buffer.iter().any(&mut pred);
                *cells[rank].lock().expect("runtime poisoned") = Some(entry);
                let mut slot = shared.slots[rank].lock().expect("runtime poisoned");
                if matched_buffered || slot.queue.iter().any(&mut pred) {
                    drop(slot);
                    shared.enqueue(rank);
                } else {
                    slot.state = SlotState::Waiting(pred);
                }
            }
            Poll::Exit(out) => {
                {
                    // what it pulled but never consumed and what it never
                    // pulled: counted as lost when the run ends
                    let mut slot = shared.slots[rank].lock().expect("runtime poisoned");
                    slot.state = SlotState::Exited;
                    entry.buffer.append(&mut slot.queue);
                    slot.queue = entry.buffer;
                }
                outputs.push((rank, out));
                if shared.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                    shared.stop_workers();
                }
            }
        }
    }
}

/// In this crate's unit tests every pool run — the policy tests' `Pool`
/// executor, `scheduler::tests`, the net and service tests — goes
/// through [`Runtime::drive`] and so through here: one still going after
/// a deadline far beyond any of them is stopped and fails with each
/// rank's last poll outcome and mailbox length, instead of hanging the
/// suite until the CI timeout (ROADMAP 8(e)).
#[cfg(test)]
pub(crate) mod watchdog {
    use super::*;
    use std::fmt::Write as _;

    /// The longest pool run of these tests takes seconds.
    const DEADLINE: Duration = Duration::from_secs(120);
    /// How long stopped workers may take to return before the process is
    /// aborted (a rank that keeps answering `Ready` never lets them).
    const GRACE: Duration = Duration::from_secs(10);

    pub(super) fn watch<M: Send, T>(shared: &Shared<M>, run: impl FnOnce() -> T) -> T {
        watch_for(shared, DEADLINE, run)
    }

    /// `run` — which polls `shared`'s ranks — stopped after `deadline`,
    /// then a panic saying what each rank was doing.
    pub(crate) fn watch_for<M: Send, T>(
        shared: &Shared<M>,
        deadline: Duration,
        run: impl FnOnce() -> T,
    ) -> T {
        let ended = AtomicBool::new(false);
        let (out, stalled) = std::thread::scope(|scope| {
            let dog = scope.spawn(|| {
                if ended_within(&ended, deadline) {
                    return None;
                }
                let report = describe(shared, deadline);
                shared.stop_workers();
                if !ended_within(&ended, GRACE) {
                    eprintln!("{report}\nthe workers did not stop: aborting");
                    std::process::abort();
                }
                Some(report)
            });
            let out = {
                // also when `run` unwinds, so the scope's join of the dog
                // does not wait out the deadline
                let _end = EndOnDrop(&ended, dog.thread());
                run()
            };
            (out, dog.join().expect("pool watchdog panicked"))
        });
        if let Some(report) = stalled {
            panic!("{report}");
        }
        out
    }

    struct EndOnDrop<'a>(&'a AtomicBool, &'a std::thread::Thread);

    impl Drop for EndOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
            self.1.unpark();
        }
    }

    /// Park until `ended` is set (`true`) or `limit` has passed (`false`).
    fn ended_within(ended: &AtomicBool, limit: Duration) -> bool {
        let start = Instant::now();
        while !ended.load(Ordering::Acquire) {
            let left = limit.saturating_sub(start.elapsed());
            if left.is_zero() {
                return false;
            }
            std::thread::park_timeout(left);
        }
        true
    }

    fn describe<M>(shared: &Shared<M>, deadline: Duration) -> String {
        let polls = shared.polls.load(Ordering::Relaxed);
        let mut report = format!(
            "pool watchdog: run still going after {deadline:?} ({polls} polls); \
             each hosted rank's last poll outcome and mailbox:"
        );
        for (rank, slot) in shared.slots.iter().enumerate() {
            let slot = slot.lock().expect("runtime poisoned");
            let outcome = match slot.state {
                // `Ready`, woken by a message, or never polled
                SlotState::Runnable => "runnable",
                SlotState::Waiting(_) => "waiting",
                SlotState::Exited => "exited",
                SlotState::Remote => continue,
            };
            let queued = slot.queue.len();
            write!(report, "\n  rank {rank}: {outcome}, {queued} queued").expect("a String");
        }
        report
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum TestMsg {
        Token(usize),
        Noise,
        Stop,
    }

    type Boxed<M, R> = Box<dyn VirtualRank<M, Output = R> + Send>;
    type Machine = Boxed<TestMsg, usize>;

    /// A machine from a closure: tests here and in [`crate::sim`] state
    /// each rank's behaviour inline.
    pub(crate) struct FnRank<F>(pub F);

    impl<M: Send, R, F: FnMut(&mut VCtx<'_, M>) -> Poll<M, R>> VirtualRank<M> for FnRank<F> {
        type Output = R;
        fn poll(&mut self, ctx: &mut VCtx<'_, M>) -> Poll<M, R> {
            (self.0)(ctx)
        }
    }

    /// `machine`'s ranks under the pool and under the virtual-time
    /// executor (millisecond delays): one contract for both.
    fn under_both<M: Send + 'static, R: Send + 'static>(
        workers: usize,
        n: usize,
        machine: impl Fn(usize, usize) -> Boxed<M, R> + Sync,
    ) -> [RuntimeRun<R>; 2] {
        let sim = crate::sim::Sim::new(9, 1e-3, 0.0, vec![0.0; n]);
        let simulated = sim.run(usize::MAX, |rank| machine(rank, n));
        let simulated = simulated.expect("simulated run finishes").run;
        [Runtime::new(workers).run(n, &machine), simulated]
    }

    /// Ring: rank 0 injects `Token(0)`; on receipt every rank forwards
    /// `Token(v + 1)` to the next rank (modulo size) and exits with `v`.
    /// The final forward targets the already-exited rank 1, so exactly
    /// one send is dropped — which the stats must report.
    struct RingRank {
        injected: bool,
    }

    impl VirtualRank<TestMsg> for RingRank {
        type Output = usize;
        fn poll(&mut self, ctx: &mut VCtx<'_, TestMsg>) -> Poll<TestMsg, usize> {
            if ctx.rank() == 0 && !self.injected {
                self.injected = true;
                ctx.send(1 % ctx.size(), TestMsg::Token(0));
            }
            match ctx.try_recv_match(|e| matches!(e.msg, TestMsg::Token(_))) {
                Some(env) => {
                    let TestMsg::Token(v) = env.msg else {
                        unreachable!()
                    };
                    ctx.send((ctx.rank() + 1) % ctx.size(), TestMsg::Token(v + 1));
                    Poll::Exit(v)
                }
                None => Poll::Wait(Box::new(|e| matches!(e.msg, TestMsg::Token(_)))),
            }
        }
    }

    #[test]
    fn token_ring_many_ranks_few_workers() {
        // far more virtual ranks than workers: the whole point
        let n = 500;
        for run in under_both(4, n, |_, _| Box::new(RingRank { injected: false })) {
            for (rank, &v) in run.results.iter().enumerate() {
                let expect = if rank == 0 { n - 1 } else { rank - 1 };
                assert_eq!(v, expect, "rank {rank}");
            }
            // rank 0's final forward hit the exited rank 1
            assert_eq!(run.stats.dropped_sends, 1);
            // every rank polled at least once; most tokens arrive while
            // their target is already suspended on the wait predicate
            // (ranks whose token raced ahead of their first poll wake
            // without one)
            assert!(run.stats.polls >= n);
            assert!(run.stats.wakeups > 0);
        }
    }

    /// Gather: every rank > 0 sends its id to rank 0 and exits; rank 0
    /// wakes on arrivals (any-message predicate) until it has them all.
    struct GatherRank {
        seen: usize,
        sum: usize,
        sent: bool,
    }

    impl VirtualRank<TestMsg> for GatherRank {
        type Output = usize;
        fn poll(&mut self, ctx: &mut VCtx<'_, TestMsg>) -> Poll<TestMsg, usize> {
            if ctx.rank() != 0 {
                if !self.sent {
                    self.sent = true;
                    ctx.send(0, TestMsg::Token(ctx.rank()));
                }
                return Poll::Exit(0);
            }
            while let Some(env) = ctx.try_recv() {
                if let TestMsg::Token(v) = env.msg {
                    self.seen += 1;
                    self.sum += v;
                }
            }
            if self.seen == ctx.size() - 1 {
                Poll::Exit(self.sum)
            } else {
                Poll::Wait(Box::new(|_| true))
            }
        }
    }

    #[test]
    fn gather_under_contention() {
        let n = 512;
        let gather = |_, _| {
            Box::new(GatherRank {
                seen: 0,
                sum: 0,
                sent: false,
            }) as Machine
        };
        for run in under_both(8, n, gather) {
            assert_eq!(run.results[0], (1..n).sum::<usize>());
            assert_eq!(run.stats.dropped_sends, 0);
        }
    }

    /// Rank 0 waits specifically for a `Token` while `Noise` arrives
    /// first; after matching out of order, the buffered noise must
    /// re-deliver in arrival order.
    struct MatchRank {
        sent: bool,
    }

    impl VirtualRank<TestMsg> for MatchRank {
        type Output = usize;
        fn poll(&mut self, ctx: &mut VCtx<'_, TestMsg>) -> Poll<TestMsg, usize> {
            if ctx.rank() == 1 {
                if !self.sent {
                    self.sent = true;
                    ctx.send(0, TestMsg::Noise);
                    ctx.send(0, TestMsg::Stop);
                    ctx.send(0, TestMsg::Token(7));
                }
                return Poll::Exit(0);
            }
            match ctx.try_recv_match(|e| matches!(e.msg, TestMsg::Token(_))) {
                Some(env) => {
                    let TestMsg::Token(v) = env.msg else {
                        unreachable!()
                    };
                    // the skipped messages re-deliver in arrival order
                    assert_eq!(ctx.try_recv().expect("noise").msg, TestMsg::Noise);
                    assert_eq!(ctx.try_recv().expect("stop").msg, TestMsg::Stop);
                    assert!(ctx.try_recv().is_none());
                    Poll::Exit(v)
                }
                None => Poll::Wait(Box::new(|e| matches!(e.msg, TestMsg::Token(_)))),
            }
        }
    }

    #[test]
    fn wait_predicate_skips_nonmatching_and_preserves_order() {
        for run in under_both(2, 2, |_, _| Box::new(MatchRank { sent: false })) {
            assert_eq!(run.results[0], 7);
            assert_eq!(run.stats.dropped_sends, 0);
        }
    }

    /// A rank that burns CPU for `spins` sin() iterations, then exits.
    struct HeavyRank {
        spins: u32,
    }

    impl VirtualRank<TestMsg> for HeavyRank {
        type Output = usize;
        fn poll(&mut self, _ctx: &mut VCtx<'_, TestMsg>) -> Poll<TestMsg, usize> {
            let mut x = 0.4f64;
            for _ in 0..self.spins {
                x = (x + 1.3).sin();
            }
            std::hint::black_box(x);
            Poll::Exit(1)
        }
    }

    /// A [`HeavyRank`] that also notes which thread polled it.
    struct TracedRank {
        heavy: HeavyRank,
        polled_by: Arc<Mutex<Vec<std::thread::ThreadId>>>,
    }

    impl VirtualRank<TestMsg> for TracedRank {
        type Output = usize;
        fn poll(&mut self, ctx: &mut VCtx<'_, TestMsg>) -> Poll<TestMsg, usize> {
            if self.heavy.spins > 0 {
                let me = std::thread::current().id();
                self.polled_by.lock().expect("no poisoning").push(me);
            }
            self.heavy.poll(ctx)
        }
    }

    #[test]
    fn work_stealing_rescues_a_skewed_pinning() {
        // all the heavy ranks are homed on worker 0 (rank % 4 == 0), the
        // rest exit immediately: without stealing, worker 0 would run the
        // entire spin workload serially while three workers idle.
        //
        // The mechanism is asserted, not the speed-up: `elapsed < ¾·serial`
        // failed on 2-vCPU hosts, where `available_parallelism() >= 2` is
        // no evidence of two idle cores. That was the only assertion on
        // measured time in `crates/*/src` and `tests/tests` (what remains
        // of `Instant` there are hang guards of 10 s and more); the timing
        // claim lives in the benchmark (`runtime.strong_eff_w2`).
        let n = 64usize;
        let n_workers = 4usize;
        let polled_by = Arc::new(Mutex::new(Vec::new()));
        // the observer is `host`'s argument: whoever hosts ranks on a
        // pool (a net process as much as a `Placement::Pool`) names its own
        let seen = Arc::new(AtomicUsize::new(0));
        let probe: StealProbe = {
            let seen = Arc::clone(&seen);
            Arc::new(move |rank, victim| {
                assert_eq!(rank % n_workers, victim, "stolen from its home worker");
                seen.fetch_add(1, Ordering::Relaxed);
            })
        };
        let pool = Runtime::new(n_workers);
        let shared = pool.host_all(n, Some(probe));
        let (outs, stats) = pool.drive(&shared, |rank, _| {
            Box::new(TracedRank {
                heavy: HeavyRank {
                    spins: if rank % n_workers == 0 { 300_000 } else { 0 },
                },
                polled_by: Arc::clone(&polled_by),
            }) as Machine
        });
        assert_eq!(outs.iter().map(|(_, out)| out).sum::<usize>(), n);
        // idle workers must actually have stolen from the hot one, and
        // the observer saw every steal …
        assert!(stats.steals > 0, "stats {stats:?}");
        assert_eq!(seen.load(Ordering::Relaxed), stats.steals);
        // … and what they stole was the heavy work: every heavy rank ran
        // once, and not all of them on their one home worker
        let polled_by = polled_by.lock().expect("no poisoning");
        assert_eq!(polled_by.len(), n / n_workers);
        assert!(
            polled_by.iter().any(|&thread| thread != polled_by[0]),
            "all heavy ranks ran on their home worker, stats {stats:?}"
        );
    }

    #[test]
    fn single_worker_never_steals() {
        let run = Runtime::new(1).run(8, |_, _| Box::new(HeavyRank { spins: 10 }) as Machine);
        assert_eq!(run.results.iter().sum::<usize>(), 8);
        assert_eq!(run.stats.steals, 0);
    }

    #[test]
    fn stats_reset_between_runs_on_a_reused_pool() {
        // regression: per-run RuntimeStats must describe one run only.
        // First run: the skewed pinning from the stealing test, which is
        // guaranteed to steal; second run on the SAME pool: trivial
        // no-contention ranks, which must report zero steals (and far
        // fewer polls), not the first run's counters carried over.
        let pool = Runtime::new(4);
        let first = pool.run(64, |rank, _| {
            Box::new(HeavyRank {
                spins: if rank % 4 == 0 { 200_000 } else { 0 },
            }) as Machine
        });
        assert!(first.stats.steals > 0, "first run must steal");
        // a single rank clamps the pool to one active worker, so this
        // run cannot steal at all — any nonzero count is leakage
        let second = pool.run(1, |_, _| Box::new(HeavyRank { spins: 0 }) as Machine);
        assert_eq!(
            second.stats.steals, 0,
            "reused pool leaked the previous run's steals: {:?}",
            second.stats
        );
        assert!(
            second.stats.polls < first.stats.polls,
            "per-run polls must not accumulate: {:?} after {:?}",
            second.stats,
            first.stats
        );
    }

    /// Messages for the interleaving tests, mirroring the scheduler's
    /// control-vs-data split.
    #[derive(Clone, Debug, PartialEq)]
    enum CtlMsg {
        Data(usize),
        Sample(usize),
        Checkpoint,
        Shutdown,
    }
    use CtlMsg::{Data, Sample};

    fn is_sample(e: &Envelope<CtlMsg>) -> bool {
        matches!(e.msg, Sample(_))
    }

    fn is_data(e: &Envelope<CtlMsg>) -> bool {
        matches!(e.msg, Data(_))
    }

    #[test]
    fn multiple_pending_predicates_preserve_arrival_order() {
        // a predicate pulls its matches out of order; the skipped
        // messages must re-deliver in the original arrival order
        let runs = under_both(2, 2, |rank, _| -> Boxed<CtlMsg, Vec<CtlMsg>> {
            let mut order = Vec::new();
            Box::new(FnRank(move |v: &mut VCtx<'_, CtlMsg>| {
                if rank == 1 {
                    for m in [Data(0), Sample(10), Data(1), Sample(11), Data(2)] {
                        v.send(0, m);
                    }
                    return Poll::Exit(Vec::new());
                }
                // predicate A: samples, twice (buffers the Data around them)
                while order.len() < 2 {
                    match v.try_recv_match(is_sample) {
                        Some(env) => order.push(env.msg),
                        None => return Poll::Wait(Box::new(is_sample)),
                    }
                }
                // predicate B (anything): the buffered Data, arrival order
                while order.len() < 5 {
                    match v.try_recv() {
                        Some(env) => order.push(env.msg),
                        None => return Poll::Wait(Box::new(|_| true)),
                    }
                }
                Poll::Exit(std::mem::take(&mut order))
            }))
        });
        for run in runs {
            let expect = [Sample(10), Sample(11), Data(0), Data(1), Data(2)];
            assert_eq!(run.results[0], expect);
        }
    }

    #[test]
    fn buffered_redelivery_interleaves_with_live_arrivals() {
        // a wait predicate buffers early messages; a later receive with
        // a *different* predicate must still see buffered messages
        // before newer arrivals
        let runs = under_both(2, 2, |rank, _| -> Boxed<CtlMsg, Vec<CtlMsg>> {
            let (mut got, mut sent) = (Vec::new(), false);
            Box::new(FnRank(move |v: &mut VCtx<'_, CtlMsg>| {
                if rank == 1 {
                    if !std::mem::replace(&mut sent, true) {
                        v.send(0, Data(7));
                        v.send(0, Sample(1));
                    }
                    // the late message goes out only once rank 0
                    // confirmed the first two were processed
                    if v.try_recv().is_none() {
                        return Poll::Wait(Box::new(|_| true));
                    }
                    v.send(0, Data(8));
                    return Poll::Exit(Vec::new());
                }
                if got.is_empty() {
                    let Some(s) = v.try_recv_match(is_sample) else {
                        return Poll::Wait(Box::new(is_sample));
                    };
                    got.push(s.msg); // Data(7) now buffered
                    v.send(1, Data(0)); // ack
                }
                while got.len() < 3 {
                    match v.try_recv_match(is_data) {
                        Some(env) => got.push(env.msg),
                        None => return Poll::Wait(Box::new(is_data)),
                    }
                }
                Poll::Exit(std::mem::take(&mut got))
            }))
        });
        for run in runs {
            // buffered Data(7) wins over the live Data(8)
            assert_eq!(run.results[0], [Sample(1), Data(7), Data(8)]);
        }
    }

    #[test]
    fn checkpoint_and_shutdown_never_starved_behind_buffered_data() {
        // a control-matching wait must find Checkpoint/Shutdown no matter
        // how much unconsumed data is buffered ahead of them
        let control = |e: &Envelope<CtlMsg>| matches!(e.msg, CtlMsg::Checkpoint | CtlMsg::Shutdown);
        let runs = under_both(2, 2, |rank, _| -> Boxed<CtlMsg, Vec<CtlMsg>> {
            let mut seen = Vec::new();
            Box::new(FnRank(move |v: &mut VCtx<'_, CtlMsg>| {
                if rank == 1 {
                    (0..50).for_each(|i| v.send(0, Data(i)));
                    v.send(0, CtlMsg::Checkpoint);
                    (50..100).for_each(|i| v.send(0, Data(i)));
                    v.send(0, CtlMsg::Shutdown);
                    return Poll::Exit(Vec::new());
                }
                // forces everything into the out-of-order buffer first
                while seen.len() < 2 {
                    match v.try_recv_match(control) {
                        Some(env) => seen.push(env.msg),
                        None => return Poll::Wait(Box::new(control)),
                    }
                }
                Poll::Exit(std::mem::take(&mut seen))
            }))
        });
        for run in runs {
            assert_eq!(run.results[0], [CtlMsg::Checkpoint, CtlMsg::Shutdown]);
            // the 100 data messages were left unread, which is counted
            assert_eq!(run.stats.dropped_sends, 100);
        }
    }

    #[test]
    fn already_buffered_match_does_not_block() {
        // a machine may return `Wait` for a message it left buffered:
        // the executor must re-poll at once, not suspend the rank —
        // nothing else is ever sent, so a lost wakeup hangs the pool
        // (and is a `Deadlock` in virtual time)
        let runs = under_both(1, 2, |rank, _| -> Boxed<CtlMsg, bool> {
            let mut sample_taken = false;
            Box::new(FnRank(move |v: &mut VCtx<'_, CtlMsg>| {
                if rank == 1 {
                    v.send(0, Data(1));
                    v.send(0, Sample(2));
                    return Poll::Exit(true);
                }
                if sample_taken {
                    return Poll::Exit(v.try_recv_match(is_data).is_some());
                }
                if v.try_recv_match(is_sample).is_none() {
                    return Poll::Wait(Box::new(is_sample));
                }
                // the data that arrived ahead of the sample was pulled
                // with it and sits in the rank-local buffer
                sample_taken = true;
                Poll::Wait(Box::new(is_data))
            }))
        });
        assert!(runs.iter().all(|run| run.results[0]));
    }

    #[test]
    fn a_hung_pool_run_fails_with_each_ranks_state() {
        // one worker: rank 0 suspends on `Data` nobody sends, then rank 1
        // leaves it a message it does not wait for and exits — a hang,
        // every worker parked
        let pool = Runtime::new(1);
        let shared = pool.host_all(2, None);
        let hung = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            watchdog::watch_for(&shared, Duration::from_millis(300), || {
                pool.drive(&shared, |rank, _| -> Boxed<CtlMsg, ()> {
                    Box::new(FnRank(move |v: &mut VCtx<'_, CtlMsg>| {
                        if rank == 1 {
                            v.send(0, CtlMsg::Checkpoint);
                            return Poll::Exit(());
                        }
                        Poll::Wait(Box::new(|e| matches!(e.msg, Data(_))))
                    }))
                })
            })
        }));
        let report = *hung
            .expect_err("the watchdog stops a hung run")
            .downcast::<String>()
            .expect("a formatted report");
        assert!(
            report.starts_with("pool watchdog: run still going"),
            "{report}"
        );
        assert!(report.contains("rank 0: waiting, 1 queued"), "{report}");
        assert!(report.contains("rank 1: exited, 0 queued"), "{report}");
    }

    #[test]
    fn dropped_sends_to_exited_ranks_are_counted() {
        // one worker (and millisecond deliveries in virtual time): rank 1
        // has exited for certain by the time rank 0 reads its message
        let runs = under_both(1, 2, |rank, _| -> Boxed<CtlMsg, ()> {
            Box::new(FnRank(move |v: &mut VCtx<'_, CtlMsg>| {
                if rank == 0 && v.try_recv().is_none() {
                    return Poll::Wait(Box::new(|_| true));
                }
                v.send(1 - rank, Data(rank));
                Poll::Exit(())
            }))
        });
        assert!(runs.iter().all(|run| run.stats.dropped_sends == 1));
    }

    #[test]
    fn out_of_range_send_is_counted_not_fatal() {
        // a stale rank index (one read off the wire, say) must be dropped
        // and tallied, never panic
        let runs = under_both(2, 2, |rank, _| -> Boxed<CtlMsg, ()> {
            Box::new(FnRank(move |v: &mut VCtx<'_, CtlMsg>| {
                if rank == 0 {
                    v.send(99, Data(0));
                    v.send(7, CtlMsg::Checkpoint);
                }
                Poll::Exit(())
            }))
        });
        assert!(runs.iter().all(|run| run.stats.dropped_sends == 2));
    }

    #[test]
    fn unread_messages_at_exit_are_counted_as_dropped() {
        // rank 0 exits with four messages pulled but never consumed and
        // three never pulled
        let is_shutdown = |e: &Envelope<CtlMsg>| matches!(e.msg, CtlMsg::Shutdown);
        let machine = |rank, _| -> Boxed<CtlMsg, ()> {
            let mut acked = false;
            Box::new(FnRank(move |v: &mut VCtx<'_, CtlMsg>| {
                if rank == 1 {
                    if !std::mem::replace(&mut acked, true) {
                        (0..4).for_each(|i| v.send(0, Data(i)));
                        v.send(0, CtlMsg::Checkpoint);
                    }
                    if v.try_recv().is_none() {
                        return Poll::Wait(Box::new(|_| true));
                    }
                    (4..6).for_each(|i| v.send(0, Data(i)));
                    v.send(0, CtlMsg::Shutdown);
                    return Poll::Exit(());
                }
                if acked {
                    // woken by the Shutdown: leave without pulling it
                    return Poll::Exit(());
                }
                if v.try_recv_match(|e| e.msg == CtlMsg::Checkpoint).is_none() {
                    return Poll::Wait(Box::new(|e| e.msg == CtlMsg::Checkpoint));
                }
                acked = true;
                v.send(1, Data(99));
                Poll::Wait(Box::new(is_shutdown))
            }))
        };
        let runs = under_both(2, 2, machine);
        assert!(runs.iter().all(|run| run.stats.dropped_sends == 7));
    }
}
