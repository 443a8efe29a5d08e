//! In-process rank substrate: the MPI stand-in.
//!
//! A [`Universe`] owns one unbounded channel per rank; each rank runs on
//! its own OS thread with a [`RankCtx`] handle: point-to-point `send`,
//! blocking `recv`, non-blocking `try_recv`, and `drive` — the **blocking
//! executor**, which runs a [`VirtualRank`] state machine on the rank's
//! thread and parks it on the channel whenever the machine waits for a
//! message matching a predicate (the analogue of tagged `MPI_Recv`, with
//! out-of-order messages buffered).

use crate::runtime::{Poll, Port, VCtx, VirtualRank};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A delivered message with its sender rank.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    pub from: usize,
    pub msg: M,
}

/// Where a send to a given destination rank is delivered: a direct
/// channel to a rank hosted in this process, or the process's shared
/// relay channel ([`crate::net`]'s router/uplink), with the destination
/// rank tagged on because relayed destinations share one channel —
/// sharing is what preserves a sender's program order across remote
/// destinations once frames hit a socket.
pub(crate) enum Outbox<M> {
    Local(Sender<Envelope<M>>),
    Relay(Sender<(usize, Envelope<M>)>),
}

// manual impl: `Sender` clones regardless of `M`, the derive would
// needlessly demand `M: Clone`
impl<M> Clone for Outbox<M> {
    fn clone(&self) -> Self {
        match self {
            Outbox::Local(tx) => Outbox::Local(tx.clone()),
            Outbox::Relay(tx) => Outbox::Relay(tx.clone()),
        }
    }
}

/// Count a send that reached nobody (`why` names the reason) in
/// `dropped`, the executor's tally. Debug builds surface the first loss
/// per run: teardown legitimately drops a handful, the count tells the
/// rest.
pub(crate) fn note_drop(dropped: &AtomicUsize, from: usize, to: usize, why: &str) {
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

/// A rank's channel endpoints, apart from its receive buffer so a
/// [`VCtx`] can borrow the two side by side.
struct Link<M> {
    rx: Receiver<Envelope<M>>,
    txs: Vec<Outbox<M>>,
    /// Universe-wide tally of sends to already-exited ranks.
    dropped_sends: Arc<AtomicUsize>,
    /// When the handle was assembled: what [`Port::now`] counts from.
    start: Instant,
}

impl<M: Send> Port<M> for Link<M> {
    fn send(&self, to: usize, env: Envelope<M>) {
        let from = env.from;
        let Some(outbox) = self.txs.get(to) else {
            note_drop(&self.dropped_sends, from, to, "out-of-range");
            return;
        };
        let lost = match outbox {
            Outbox::Local(tx) => tx.send(env).is_err(),
            Outbox::Relay(tx) => tx.send((to, env)).is_err(),
        };
        if lost {
            note_drop(&self.dropped_sends, from, to, "exited");
        }
    }

    fn pull(&self, _rank: usize, buffer: &mut VecDeque<Envelope<M>>) {
        buffer.extend(self.rx.try_iter());
    }

    fn now(&self, _rank: usize) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Per-rank communication handle.
pub struct RankCtx<M: Send> {
    rank: usize,
    size: usize,
    link: Link<M>,
    /// Messages received but not yet consumed, in arrival order.
    buffer: VecDeque<Envelope<M>>,
}

impl<M: Send> RankCtx<M> {
    /// Assemble a handle from raw parts — how [`Universe::run_counted`]
    /// and the net transport build their rank endpoints.
    pub(crate) fn from_parts(
        rank: usize,
        size: usize,
        rx: Receiver<Envelope<M>>,
        txs: Vec<Outbox<M>>,
        dropped_sends: Arc<AtomicUsize>,
    ) -> Self {
        Self {
            rank,
            size,
            link: Link {
                rx,
                txs,
                dropped_sends,
                start: Instant::now(),
            },
            buffer: VecDeque::new(),
        }
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `msg` to rank `to`. Sends never block (unbounded channels);
    /// sends to already-exited ranks — and sends to out-of-range rank
    /// indices, a routine race under elastic membership rather than a
    /// programmer error — are dropped but counted (and warned about in
    /// debug builds), so message loss is observable via
    /// [`Universe::run_counted`] instead of silent.
    pub fn send(&self, to: usize, msg: M) {
        self.link.send(
            to,
            Envelope {
                from: self.rank,
                msg,
            },
        );
    }

    /// Sends to exited ranks observed universe-wide so far.
    pub fn dropped_sends(&self) -> usize {
        self.link.dropped_sends.load(Ordering::Relaxed)
    }

    /// Blocking receive of the next message (buffered first).
    pub fn recv(&mut self) -> Envelope<M> {
        if let Some(env) = self.buffer.pop_front() {
            return env;
        }
        self.link
            .rx
            .recv()
            .expect("RankCtx::recv: universe torn down")
    }

    /// Non-blocking receive (buffered first).
    pub fn try_recv(&mut self) -> Option<Envelope<M>> {
        if let Some(env) = self.buffer.pop_front() {
            return Some(env);
        }
        self.link.rx.try_recv().ok()
    }

    /// Drain everything currently queued without blocking.
    pub fn drain(&mut self) -> Vec<Envelope<M>> {
        let mut out = Vec::new();
        while let Some(env) = self.try_recv() {
            out.push(env);
        }
        out
    }

    /// The blocking executor: poll `machine` on this rank's own thread
    /// until it exits, parking on the channel whenever it waits — the
    /// pool's ([`crate::runtime::Runtime`]) contract with one worker per
    /// rank. Non-matching arrivals stay buffered in arrival order, and
    /// the buffer is checked before parking, so a match that raced in
    /// ahead of the `Wait` is never slept through. The handle comes
    /// back with whatever the machine left unconsumed still in it
    /// ([`drain`](Self::drain) returns it in order).
    ///
    /// # Panics
    /// Panics if every sender is gone while the machine still waits.
    pub(crate) fn drive<V>(mut self, machine: &mut V) -> (V::Output, Self)
    where
        V: VirtualRank<M> + ?Sized,
    {
        loop {
            let mut ctx = VCtx::new(self.rank, self.size, &self.link, &mut self.buffer);
            match machine.poll(&mut ctx) {
                Poll::Ready => {}
                Poll::Wait(mut pred) => {
                    let mut matched = self.buffer.iter().any(&mut pred);
                    while !matched {
                        let env = self
                            .link
                            .rx
                            .recv()
                            .expect("RankCtx::drive: universe torn down");
                        matched = pred(&env);
                        self.buffer.push_back(env);
                    }
                }
                Poll::Exit(out) => return (out, self),
            }
        }
    }
}

/// Statistics of one universe execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniverseStats {
    /// Sends that targeted an already-exited rank (dropped messages).
    /// Nonzero values are expected during scheduler shutdown; anything
    /// nonzero *outside* teardown indicates a protocol bug.
    pub dropped_sends: usize,
}

/// The set of communicating ranks.
pub struct Universe;

impl Universe {
    /// Run `n_ranks` ranks, each executing `f(ctx)` on its own thread, and
    /// gather their return values by rank index.
    ///
    /// # Panics
    /// Propagates panics from rank threads.
    pub fn run<M, R, F>(n_ranks: usize, f: F) -> Vec<R>
    where
        M: Send + 'static,
        R: Send,
        F: Fn(RankCtx<M>) -> R + Send + Sync,
    {
        Self::run_counted(n_ranks, f).0
    }

    /// [`run`](Self::run), additionally reporting universe-wide
    /// statistics — in particular the count of messages dropped because
    /// their destination rank had already exited.
    ///
    /// # Panics
    /// Propagates panics from rank threads.
    pub fn run_counted<M, R, F>(n_ranks: usize, f: F) -> (Vec<R>, UniverseStats)
    where
        M: Send + 'static,
        R: Send,
        F: Fn(RankCtx<M>) -> R + Send + Sync,
    {
        assert!(n_ranks > 0, "Universe::run: need at least one rank");
        let mut txs = Vec::with_capacity(n_ranks);
        let mut rxs = Vec::with_capacity(n_ranks);
        for _ in 0..n_ranks {
            let (tx, rx) = unbounded();
            txs.push(Outbox::Local(tx));
            rxs.push(rx);
        }
        let dropped_sends = Arc::new(AtomicUsize::new(0));
        let mut results: Vec<Option<R>> = (0..n_ranks).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n_ranks);
            for (rank, rx) in rxs.into_iter().enumerate() {
                let ctx =
                    RankCtx::from_parts(rank, n_ranks, rx, txs.clone(), Arc::clone(&dropped_sends));
                let f = &f;
                handles.push(scope.spawn(move || f(ctx)));
            }
            // the senders held by `txs` are dropped only after all ranks
            // finish, so recv() during execution never observes teardown
            for (rank, handle) in handles.into_iter().enumerate() {
                results[rank] = Some(handle.join().expect("rank thread panicked"));
            }
        });
        let stats = UniverseStats {
            dropped_sends: dropped_sends.load(Ordering::Relaxed),
        };
        (results.into_iter().map(Option::unwrap).collect(), stats)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum TestMsg {
        Ping(usize),
        Pong(usize),
        Data(Vec<f64>),
    }

    /// A machine from a closure: the tests below (and the simulator's)
    /// state each rank's behaviour inline.
    pub(crate) struct FnRank<F>(pub F);

    impl<M: Send, R, F: FnMut(&mut VCtx<'_, M>) -> Poll<M, R>> VirtualRank<M> for FnRank<F> {
        type Output = R;
        fn poll(&mut self, ctx: &mut VCtx<'_, M>) -> Poll<M, R> {
            (self.0)(ctx)
        }
    }

    /// Drive the closure machine `f` to exit on `ctx`'s thread.
    fn drive<M: Send, R>(
        ctx: RankCtx<M>,
        f: impl FnMut(&mut VCtx<'_, M>) -> Poll<M, R>,
    ) -> (R, RankCtx<M>) {
        ctx.drive(&mut FnRank(f))
    }

    #[test]
    fn ring_pass() {
        // each rank sends its rank to the next; everyone receives prev
        let results = Universe::run(5, |mut ctx: RankCtx<TestMsg>| {
            let next = (ctx.rank() + 1) % ctx.size();
            ctx.send(next, TestMsg::Ping(ctx.rank()));
            let env = ctx.recv();
            match env.msg {
                TestMsg::Ping(r) => r,
                _ => panic!("unexpected"),
            }
        });
        assert_eq!(results, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn gather_to_root() {
        let results = Universe::run(4, |mut ctx: RankCtx<TestMsg>| {
            if ctx.rank() == 0 {
                let mut sum = 0.0;
                for _ in 0..3 {
                    if let TestMsg::Data(v) = ctx.recv().msg {
                        sum += v.iter().sum::<f64>();
                    }
                }
                sum
            } else {
                ctx.send(0, TestMsg::Data(vec![ctx.rank() as f64; 2]));
                0.0
            }
        });
        assert_eq!(results[0], 12.0);
    }

    #[test]
    fn try_recv_nonblocking() {
        let results = Universe::run(2, |mut ctx: RankCtx<TestMsg>| {
            if ctx.rank() == 0 {
                // nothing sent yet
                let empty = ctx.try_recv().is_none();
                ctx.send(1, TestMsg::Ping(0));
                empty
            } else {
                let env = ctx.recv();
                assert_eq!(env.from, 0);
                true
            }
        });
        assert!(results[0] && results[1]);
    }

    /// Messages for the interleaving tests, mirroring the scheduler's
    /// control-vs-data split.
    #[derive(Clone, Debug, PartialEq)]
    enum CtlMsg {
        Data(usize),
        Sample(usize),
        Poison,
        Shutdown,
    }

    fn is_sample(e: &Envelope<CtlMsg>) -> bool {
        matches!(e.msg, CtlMsg::Sample(_))
    }

    #[test]
    fn multiple_pending_predicates_preserve_arrival_order() {
        // a predicate pulls its matches out of order; the skipped
        // messages must re-deliver in the original arrival order
        let results = Universe::run(2, |ctx: RankCtx<CtlMsg>| {
            if ctx.rank() == 1 {
                for m in [
                    CtlMsg::Data(0),
                    CtlMsg::Sample(10),
                    CtlMsg::Data(1),
                    CtlMsg::Sample(11),
                    CtlMsg::Data(2),
                ] {
                    ctx.send(0, m);
                }
                return Vec::new();
            }
            let mut order = Vec::new();
            drive(ctx, |v| {
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
            })
            .0
        });
        use CtlMsg::{Data, Sample};
        assert_eq!(
            results[0],
            vec![Sample(10), Sample(11), Data(0), Data(1), Data(2)]
        );
    }

    #[test]
    fn buffered_redelivery_interleaves_with_live_arrivals() {
        // a wait predicate buffers early messages; a later receive with
        // a *different* predicate must still see buffered messages
        // before newer channel arrivals
        let results = Universe::run(2, |mut ctx: RankCtx<CtlMsg>| {
            if ctx.rank() == 1 {
                ctx.send(0, CtlMsg::Data(7));
                ctx.send(0, CtlMsg::Sample(1));
                // only send the late message once rank 0 confirmed the
                // first two were processed
                let _ = ctx.recv();
                ctx.send(0, CtlMsg::Data(8));
                return Vec::new();
            }
            let is_data = |e: &Envelope<CtlMsg>| matches!(e.msg, CtlMsg::Data(_));
            let mut got = Vec::new();
            drive(ctx, |v| {
                if got.is_empty() {
                    let Some(s) = v.try_recv_match(is_sample) else {
                        return Poll::Wait(Box::new(is_sample));
                    };
                    got.push(s.msg); // Data(7) now buffered
                    v.send(1, CtlMsg::Data(0)); // ack
                }
                while got.len() < 3 {
                    match v.try_recv_match(is_data) {
                        Some(env) => got.push(env.msg),
                        None => return Poll::Wait(Box::new(is_data)),
                    }
                }
                Poll::Exit(std::mem::take(&mut got))
            })
            .0
        });
        // buffered Data(7) wins over the live Data(8)
        use CtlMsg::{Data, Sample};
        assert_eq!(results[0], vec![Sample(1), Data(7), Data(8)]);
    }

    #[test]
    fn poison_and_shutdown_never_starved_behind_buffered_data() {
        // a teardown-matching wait must find Poison/Shutdown no matter
        // how much unconsumed data is buffered ahead of them
        let results = Universe::run(2, |ctx: RankCtx<CtlMsg>| {
            if ctx.rank() == 1 {
                for i in 0..50 {
                    ctx.send(0, CtlMsg::Data(i));
                }
                ctx.send(0, CtlMsg::Poison);
                for i in 50..100 {
                    ctx.send(0, CtlMsg::Data(i));
                }
                ctx.send(0, CtlMsg::Shutdown);
                return 0;
            }
            let teardown =
                |e: &Envelope<CtlMsg>| matches!(e.msg, CtlMsg::Poison | CtlMsg::Shutdown);
            let mut seen = Vec::new();
            let (_, mut ctx) = drive(ctx, |v| {
                // forces everything into the out-of-order buffer first
                while seen.len() < 2 {
                    match v.try_recv_match(teardown) {
                        Some(env) => seen.push(env.msg),
                        None => return Poll::Wait(Box::new(teardown)),
                    }
                }
                Poll::Exit(())
            });
            assert_eq!(
                seen,
                [CtlMsg::Poison, CtlMsg::Shutdown],
                "teardown in order"
            );
            // `Exit` hands the context back with the 100 data messages
            // all still there, in order (the elastic leftover path)
            let data = ctx.drain();
            for (expect, env) in data.iter().enumerate() {
                assert_eq!(env.msg, CtlMsg::Data(expect));
            }
            data.len()
        });
        assert_eq!(results[0], 100);
    }

    #[test]
    fn already_buffered_match_does_not_block() {
        // a machine may return `Wait` for a message it left buffered:
        // the executor must re-poll at once, not sleep on the channel —
        // nothing else is ever sent, so a lost wakeup hangs this test
        let results = Universe::run(1, |ctx: RankCtx<CtlMsg>| {
            ctx.send(0, CtlMsg::Data(1));
            ctx.send(0, CtlMsg::Sample(2));
            let mut polls = 0;
            drive(ctx, |v| {
                polls += 1;
                if polls == 1 {
                    // pulls both, consumes one, waits on the other
                    assert_eq!(v.try_recv().expect("data").msg, CtlMsg::Data(1));
                    return Poll::Wait(Box::new(is_sample));
                }
                Poll::Exit(v.try_recv_match(is_sample).is_some() && polls == 2)
            })
            .0
        });
        assert!(results[0]);
    }

    #[test]
    fn dropped_sends_to_exited_ranks_are_counted() {
        let (_, stats) = Universe::run_counted(2, |ctx: RankCtx<CtlMsg>| {
            if ctx.rank() == 1 {
                // exit immediately: rank 0's pings eventually hit a
                // dropped receiver
                return 0;
            }
            let mut tries = 0usize;
            while ctx.dropped_sends() == 0 {
                ctx.send(1, CtlMsg::Data(tries));
                tries += 1;
                assert!(tries < 1_000_000, "rank 1 never exited?");
                std::thread::yield_now();
            }
            ctx.dropped_sends()
        });
        assert!(stats.dropped_sends >= 1);
    }

    #[test]
    fn out_of_range_send_is_counted_not_fatal() {
        // under elastic membership a stale rank index is a routine race:
        // the send must be dropped and tallied, never panic
        let (_, stats) = Universe::run_counted(2, |ctx: RankCtx<CtlMsg>| {
            if ctx.rank() == 0 {
                ctx.send(99, CtlMsg::Data(0));
                ctx.send(7, CtlMsg::Poison);
            }
            ctx.dropped_sends()
        });
        assert_eq!(stats.dropped_sends, 2);
    }

    #[test]
    fn drain_collects_pending() {
        let results = Universe::run(3, |ctx: RankCtx<TestMsg>| {
            if ctx.rank() != 0 {
                ctx.send(0, TestMsg::Pong(ctx.rank()));
                return 0;
            }
            // wait until both messages are in (consuming neither), then
            // drain what the executor hands back
            let mut waited = false;
            let (_, mut ctx) = drive(ctx, |_| {
                if std::mem::replace(&mut waited, true) {
                    return Poll::Exit(());
                }
                let mut arrived = 0;
                Poll::Wait(Box::new(move |_| {
                    arrived += 1;
                    arrived == 2
                }))
            });
            ctx.drain().len()
        });
        assert_eq!(results[0], 2);
    }
}
