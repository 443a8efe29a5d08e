//! Cooperative virtual-rank runtime: many suspendable ranks per worker
//! thread.
//!
//! A **virtual rank** is an explicitly suspendable state machine
//! implementing [`VirtualRank`] — each [`poll`](VirtualRank::poll) runs
//! until the rank would block on a receive, then returns a *wait
//! predicate* ([`Poll::Wait`]); the rank is re-polled only when a
//! matching message arrives. Two executors drive such machines. The
//! blocking one (`RankCtx::drive` in [`crate::comm`]) gives every rank
//! its own OS thread, so live runs are bounded by the physical core
//! count. The pool in this module removes that bound: a small pool of
//! worker threads (typically far fewer than ranks) drives the machines
//! through per-worker run queues with message-arrival wakeups, so
//! hundreds to thousands of controllers run **live** on a handful of
//! cores.
//!
//! Delivery semantics are the same under both: per-rank FIFO queues,
//! non-blocking sends, out-of-order messages buffered in arrival order
//! and re-delivered first ([`VCtx::try_recv_match`]), and sends to
//! exited ranks are dropped — here counted in
//! [`RuntimeStats::dropped_sends`] rather than lost silently.
//!
//! Scheduling is deterministic in structure (rank `r` is *homed* on
//! worker `r % n_workers`, run queues are FIFO) but not in timing: wakeup
//! interleavings across workers depend on the OS, exactly like the
//! blocking executor's threads. An idle worker **steals** runnable ranks
//! from the longest run queue (machines live in per-rank cells and are
//! `Send`, so they travel with their rank), which bounds the straggling a
//! hot home worker can cause; with a single worker no stealing is
//! possible, so single-worker runs remain exactly deterministic. The
//! MLMCMC role machines live in [`crate::roles`].

use crate::comm::{note_drop, Envelope};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
    /// Exited; further sends are dropped (and counted).
    Exited,
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

struct Shared<M> {
    slots: Vec<Mutex<RankSlot<M>>>,
    workers: Vec<Worker>,
    /// Ranks that have not exited yet.
    live: AtomicUsize,
    /// All ranks exited — workers drain and return.
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
pub type StealProbe = Arc<dyn Fn(usize, usize) + Send + Sync>;

impl<M: Send> Shared<M> {
    fn worker_of(&self, rank: usize) -> &Worker {
        &self.workers[rank % self.workers.len()]
    }

    fn enqueue(&self, rank: usize) {
        let worker = self.worker_of(rank);
        let mut queue = worker.run_queue.lock().expect("runtime poisoned");
        queue.push_back(rank);
        worker.cv.notify_one();
    }
}

/// What a [`VCtx`] asks of the executor driving its rank: deliver a
/// message, hand over what has arrived, tell the time. The pool's
/// `Shared` mailboxes, the blocking executor's channels
/// ([`crate::comm::RankCtx`]) and the virtual-time executor
/// ([`crate::sim`]) all provide it, so one set of role machines runs
/// under any of them.
pub(crate) trait Port<M> {
    /// Deliver `env` to rank `to`; never blocks. A destination that has
    /// exited or is out of range drops the message and counts it.
    fn send(&self, to: usize, env: Envelope<M>);

    /// Move everything queued for `rank` into `buffer`, in arrival order.
    fn pull(&self, rank: usize, buffer: &mut VecDeque<Envelope<M>>);

    /// Seconds since the run began as `rank` experiences them: wall-clock
    /// under the live executors, the rank's virtual clock when simulated.
    fn now(&self, rank: usize) -> f64;
}

impl<M: Send> Port<M> for Shared<M> {
    /// Wakes `to` when its wait predicate matches `env`.
    fn send(&self, to: usize, env: Envelope<M>) {
        // out of range is a routine race under elastic membership, not
        // a programmer error
        let Some(slot) = self.slots.get(to) else {
            note_drop(&self.dropped_sends, env.from, to, "out-of-range");
            return;
        };
        let wake = {
            let mut slot = slot.lock().expect("runtime poisoned");
            match &mut slot.state {
                SlotState::Exited => {
                    note_drop(&self.dropped_sends, env.from, to, "exited");
                    return;
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

    /// Send `msg` to rank `to`; never blocks. Sends to exited ranks —
    /// and to out-of-range rank indices, a routine race under elastic
    /// membership rather than a programmer error — are dropped and
    /// counted ([`RuntimeStats::dropped_sends`] under the pool).
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

    /// Put a message back at the front of the buffer (next to be
    /// returned by `try_recv`).
    pub fn unrecv(&mut self, env: Envelope<M>) {
        self.buffer.push_front(env);
    }
}

/// Counters describing one runtime execution. The stats returned by
/// [`Runtime::run`] cover **that run only** — a [`Runtime`] reused
/// across runs resets them between invocations (regression-tested by
/// `stats_reset_between_runs_on_a_reused_pool`); the pool-lifetime
/// accumulation lives in [`Runtime::lifetime_stats`].
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

impl RuntimeStats {
    /// Component-wise accumulation (lifetime bookkeeping).
    fn absorb(&mut self, other: &RuntimeStats) {
        self.polls += other.polls;
        self.wakeups += other.wakeups;
        self.dropped_sends += other.dropped_sends;
        self.steals += other.steals;
    }
}

/// Results of a runtime execution.
pub struct RuntimeRun<R> {
    /// Per-rank outputs, indexed by rank.
    pub results: Vec<R>,
    pub stats: RuntimeStats,
}

/// The cooperative runtime. One `Runtime` is a reusable worker pool:
/// [`run`](Self::run) may be invoked repeatedly (e.g. across the points
/// of a scaling sweep) and each invocation's [`RuntimeStats`] describe
/// that run alone, while [`lifetime_stats`](Self::lifetime_stats)
/// accumulates across every run of the pool.
pub struct Runtime {
    n_workers: usize,
    lifetime: parking_lot::Mutex<RuntimeStats>,
    /// Optional steal observer installed by the driver (interior
    /// mutability: the pool is shared by reference). Copied into each
    /// run's `Shared`, so mid-run installs take effect at the next run.
    steal_probe: parking_lot::Mutex<Option<StealProbe>>,
}

impl Runtime {
    /// A runtime driving its virtual ranks with `n_workers` OS threads.
    ///
    /// # Panics
    /// Panics if `n_workers == 0`.
    pub fn new(n_workers: usize) -> Self {
        assert!(n_workers > 0, "Runtime: need at least one worker");
        Self {
            n_workers,
            lifetime: parking_lot::Mutex::new(RuntimeStats::default()),
            steal_probe: parking_lot::Mutex::new(None),
        }
    }

    /// Install (or clear) the steal observer for subsequent runs. The
    /// probe is called as `(stolen_rank, victim_worker)` on the thief's
    /// idle path only — it cannot affect scheduling order, message
    /// delivery or rank state, so enabling it preserves bit-identical
    /// execution.
    pub fn set_steal_probe(&self, probe: Option<StealProbe>) {
        *self.steal_probe.lock() = probe;
    }

    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Counters accumulated over every [`run`](Self::run) of this pool.
    pub fn lifetime_stats(&self) -> RuntimeStats {
        *self.lifetime.lock()
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
        assert!(n_ranks > 0, "Runtime::run: need at least one rank");
        let n_workers = self.n_workers.min(n_ranks);
        let shared = Shared {
            slots: (0..n_ranks)
                .map(|_| {
                    Mutex::new(RankSlot {
                        queue: VecDeque::new(),
                        state: SlotState::Runnable,
                    })
                })
                .collect(),
            workers: (0..n_workers)
                .map(|_| Worker {
                    run_queue: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            live: AtomicUsize::new(n_ranks),
            done: AtomicBool::new(false),
            dropped_sends: AtomicUsize::new(0),
            polls: AtomicUsize::new(0),
            wakeups: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
            steal_probe: self.steal_probe.lock().clone(),
            start: Instant::now(),
        };
        // every rank starts runnable, queued in rank order on its worker
        for (worker_id, worker) in shared.workers.iter().enumerate() {
            let mut queue = worker.run_queue.lock().expect("runtime poisoned");
            queue.extend((worker_id..n_ranks).step_by(n_workers));
        }
        // machine cells: one per rank, taken by whichever worker polls it
        let cells: Vec<Mutex<Option<Entry<'a, M, R>>>> =
            (0..n_ranks).map(|_| Mutex::new(None)).collect();
        let mut results: Vec<Option<R>> = (0..n_ranks).map(|_| None).collect();
        std::thread::scope(|scope| {
            let shared = &shared;
            let cells = &cells;
            let factory = &factory;
            let mut handles = Vec::with_capacity(n_workers);
            for worker_id in 0..n_workers {
                handles.push(
                    scope.spawn(move || worker_loop(shared, cells, worker_id, n_ranks, factory)),
                );
            }
            for handle in handles {
                for (rank, out) in handle.join().expect("runtime worker panicked") {
                    results[rank] = Some(out);
                }
            }
        });
        // per-run counters: `Shared` is constructed afresh above, so a
        // reused pool cannot leak a previous run's polls/steals into
        // this run's stats — only the lifetime accumulator carries over
        let stats = RuntimeStats {
            polls: shared.polls.load(Ordering::Relaxed),
            wakeups: shared.wakeups.load(Ordering::Relaxed),
            dropped_sends: shared.dropped_sends.load(Ordering::Relaxed),
            steals: shared.steals.load(Ordering::Relaxed),
        };
        self.lifetime.lock().absorb(&stats);
        RuntimeRun {
            results: results.into_iter().map(Option::unwrap).collect(),
            stats,
        }
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
            self.0.done.store(true, Ordering::Release);
            for w in &self.0.workers {
                let _guard = w.run_queue.lock();
                w.cv.notify_all();
            }
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
    n_ranks: usize,
    factory: &F,
) -> Vec<(usize, R)>
where
    M: Send + 'a,
    R: Send + 'a,
    F: Fn(usize, usize) -> Box<dyn VirtualRank<M, Output = R> + Send + 'a> + Sync,
{
    let mut outputs = Vec::new();
    let worker = &shared.workers[worker_id];
    let _fence = PanicFence(shared);
    loop {
        // next runnable rank: own queue, else steal, else park briefly
        // (timed, so new steal opportunities on other workers' queues are
        // noticed; own-queue wakeups notify the condvar directly)
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
                        .wait_timeout(queue, Duration::from_micros(500))
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
                    let mut slot = shared.slots[rank].lock().expect("runtime poisoned");
                    slot.state = SlotState::Exited;
                    // messages never received count as dropped too —
                    // shutdown loss must be observable, not silent
                    let lost = slot.queue.len() + entry.buffer.len();
                    shared.dropped_sends.fetch_add(lost, Ordering::Relaxed);
                    slot.queue.clear();
                }
                drop(entry);
                outputs.push((rank, out));
                if shared.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                    shared.done.store(true, Ordering::Release);
                    for w in &shared.workers {
                        let _guard = w.run_queue.lock().expect("runtime poisoned");
                        w.cv.notify_all();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum TestMsg {
        Token(usize),
        Noise,
        Stop,
    }

    type Machine = Box<dyn VirtualRank<TestMsg, Output = usize> + Send>;

    /// `machine`'s ranks under the pool and under the virtual-time
    /// executor (millisecond delays): one contract for both.
    fn under_both(
        workers: usize,
        n: usize,
        machine: impl Fn(usize, usize) -> Machine + Sync,
    ) -> [RuntimeRun<usize>; 2] {
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
        let run = Runtime::new(n_workers).run(n, |rank, _| {
            Box::new(TracedRank {
                heavy: HeavyRank {
                    spins: if rank % n_workers == 0 { 300_000 } else { 0 },
                },
                polled_by: Arc::clone(&polled_by),
            }) as Machine
        });
        assert_eq!(run.results.iter().sum::<usize>(), n);
        // idle workers must actually have stolen from the hot one …
        assert!(run.stats.steals > 0, "stats {:?}", run.stats);
        // … and what they stole was the heavy work: every heavy rank ran
        // once, and not all of them on their one home worker
        let polled_by = polled_by.lock().expect("no poisoning");
        assert_eq!(polled_by.len(), n / n_workers);
        assert!(
            polled_by.iter().any(|&thread| thread != polled_by[0]),
            "all heavy ranks ran on their home worker, stats {:?}",
            run.stats
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
        // the pool-lifetime view is the across-runs sum
        let lifetime = pool.lifetime_stats();
        assert_eq!(lifetime.steals, first.stats.steals + second.stats.steals);
        assert_eq!(lifetime.polls, first.stats.polls + second.stats.polls);
        assert_eq!(
            lifetime.dropped_sends,
            first.stats.dropped_sends + second.stats.dropped_sends
        );
    }

    #[test]
    fn unrecv_requeues_at_front() {
        struct Requeue {
            sent: bool,
        }
        impl VirtualRank<TestMsg> for Requeue {
            type Output = usize;
            fn poll(&mut self, ctx: &mut VCtx<'_, TestMsg>) -> Poll<TestMsg, usize> {
                if ctx.rank() == 1 {
                    if !self.sent {
                        self.sent = true;
                        ctx.send(0, TestMsg::Token(1));
                        ctx.send(0, TestMsg::Token(2));
                    }
                    return Poll::Exit(0);
                }
                match ctx.try_recv_match(|e| matches!(e.msg, TestMsg::Token(2))) {
                    Some(env) => {
                        ctx.unrecv(env);
                        // Token(1) was buffered first, but the unrecv'd
                        // Token(2) jumps the queue
                        let TestMsg::Token(v) = ctx.try_recv().expect("front").msg else {
                            panic!("expected token")
                        };
                        Poll::Exit(v)
                    }
                    None => Poll::Wait(Box::new(|e| matches!(e.msg, TestMsg::Token(2)))),
                }
            }
        }
        for run in under_both(1, 2, |_, _| Box::new(Requeue { sent: false })) {
            assert_eq!(run.results[0], 2);
        }
    }
}
