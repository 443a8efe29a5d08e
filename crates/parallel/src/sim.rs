//! The virtual-time executor: the other way to drive [`VirtualRank`]
//! machines besides the pool, single-threaded and seeded.
//!
//! What is simulated is **time and delivery**, nothing else. Every rank
//! has a virtual clock. A send is stamped with the sender's clock plus a
//! delay the executor draws, and becomes visible to the receiver's `pull`
//! once the receiver's clock has reached the stamp. Delays lie between
//! the latency and twice that and never overtake an earlier message of
//! the same sender to the same destination: any two hops take longer
//! than any one, so delivery is per-pair FIFO and causally ordered —
//! what every live transport guarantees (pool slots enqueue at send time,
//! the net star relays in order, DESIGN §9.2) and no more. The next rank
//! polled is always the runnable or wakeable one with the least virtual
//! time, ties broken from the seed, so no rank is ever handed a message
//! from its own past. Work advances only the polling rank's clock:
//! whatever stands in for a model evaluation charges the run's `Meter`,
//! and each pulled message costs the rank its `service` seconds.
//!
//! The machines are the ones that ship — [`crate::Placement::Sim`] drives
//! every line of [`crate::roles`], the ledger and the chains — so a
//! simulated run is a deterministic function of its seed, and a run that
//! cannot finish is a [`SimError`] carrying that seed, never a hang.

use crate::runtime::{Envelope, Poll, Port, RuntimeRun, RuntimeStats, VCtx, VirtualRank, WaitPred};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::{RefCell, RefMut};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex};
use uq_linalg::prob::standard_normal;

/// A simulated run that could not finish; re-running `seed` reproduces it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The ranks in `live` wait for messages nobody is going to send.
    Deadlock { seed: u64, live: Vec<usize> },
    /// The run was abandoned after `polls` polls.
    PollBudget { seed: u64, polls: usize },
}

/// Work done inside polls, charged by whatever stands in for it. The
/// executor moves the seconds onto the polling rank's clock before that
/// rank next sends, pulls or reads the time. (One thread by
/// construction; the lock only makes the handle `Send`.)
pub(crate) struct Meter {
    /// Lognormal σ applied to every charge (0 = none).
    jitter: f64,
    /// `(jitter stream, seconds not yet on a clock, seconds per kind)`.
    charged: Mutex<(StdRng, f64, Vec<f64>)>,
}

impl Meter {
    /// Charge `secs` (× jitter) of work of `kind` to the polling rank.
    pub(crate) fn charge(&self, kind: usize, mut secs: f64) {
        let (rng, unsettled, by_kind) = &mut *self.charged.lock().expect("one thread");
        if self.jitter > 0.0 {
            secs *= (self.jitter * standard_normal(rng)).exp();
        }
        *unsettled += secs;
        if by_kind.len() <= kind {
            by_kind.resize(kind + 1, 0.0);
        }
        by_kind[kind] += secs;
    }
}

struct State<M> {
    rng: StdRng,
    clock: Vec<f64>,
    /// Virtual time each rank is next due a poll; `INFINITY` while it is
    /// being polled, waits with nothing matching, or has exited.
    due: Vec<f64>,
    /// `(due bits, seeded tie-break, rank)`; an entry whose time is no
    /// longer the rank's `due` was superseded and is skipped.
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    waiting: Vec<Option<WaitPred<M>>>,
    exited: Vec<bool>,
    /// Per destination, sorted by visibility stamp.
    inbox: Vec<VecDeque<(f64, Envelope<M>)>>,
    polling: usize,
    stats: RuntimeStats,
    first_drop: Option<f64>,
}

impl<M> State<M> {
    fn schedule(&mut self, rank: usize, at: f64) {
        if at < self.due[rank] {
            self.due[rank] = at;
            let tie = self.rng.random::<u64>();
            // non-negative floats order like their bit patterns
            self.heap.push(Reverse((at.to_bits(), tie, rank)));
        }
    }

    fn lose(&mut self, count: usize, at: f64) {
        if count > 0 {
            self.stats.dropped_sends += count;
            self.first_drop.get_or_insert(at);
        }
    }
}

/// What a finished simulated run hands back.
pub(crate) struct SimRun<R> {
    /// Per-rank outputs and the counters, as the pool reports them.
    pub run: RuntimeRun<R>,
    /// Each rank's clock when it exited.
    pub clocks: Vec<f64>,
    /// Virtual time of the first message that reached nobody.
    pub first_drop: Option<f64>,
    /// Seconds charged to the [`Meter`], by kind.
    pub charged: Vec<f64>,
}

/// The executor. Its inputs are a seed, a cost model (delivery-delay
/// bound, work jitter, per-rank service costs) and a poll budget.
pub(crate) struct Sim<M> {
    seed: u64,
    /// A delivery takes between `latency` and twice that (seconds).
    latency: f64,
    /// Seconds a rank spends on each message it pulls, by rank.
    service: Vec<f64>,
    /// Where the stand-ins for work charge it.
    pub(crate) meter: Arc<Meter>,
    state: RefCell<State<M>>,
}

impl<M: Send> Sim<M> {
    pub(crate) fn new(seed: u64, latency: f64, jitter: f64, service: Vec<f64>) -> Self {
        let n = service.len();
        let work = (StdRng::seed_from_u64(!seed), 0.0, Vec::new());
        let meter = Arc::new(Meter {
            jitter,
            charged: Mutex::new(work),
        });
        let state = State {
            rng: StdRng::seed_from_u64(seed),
            clock: vec![0.0; n],
            due: vec![f64::INFINITY; n],
            heap: BinaryHeap::new(),
            waiting: (0..n).map(|_| None).collect(),
            exited: vec![false; n],
            inbox: (0..n).map(|_| VecDeque::new()).collect(),
            polling: 0,
            stats: RuntimeStats::default(),
            first_drop: None,
        };
        Self {
            seed,
            latency,
            service,
            meter,
            state: RefCell::new(state),
        }
    }

    /// The state, with the work metered so far on the polling rank's clock.
    fn settled(&self) -> RefMut<'_, State<M>> {
        let mut st = self.state.borrow_mut();
        let polling = st.polling;
        st.clock[polling] += std::mem::take(&mut self.meter.charged.lock().expect("one thread").1);
        st
    }

    /// Poll the machines `machine(rank)` builds, least virtual time
    /// first, until every rank has exited. A machine is built at its
    /// rank's first poll, as under the pool, so work done building it is
    /// metered to that rank.
    pub(crate) fn run<'a, R>(
        &self,
        poll_budget: usize,
        machine: impl Fn(usize) -> Box<dyn VirtualRank<M, Output = R> + Send + 'a>,
    ) -> Result<SimRun<R>, SimError> {
        let n = self.service.len();
        let seed = self.seed;
        let mut machines: Vec<_> = (0..n).map(|_| None).collect();
        let mut buffers: Vec<VecDeque<Envelope<M>>> = (0..n).map(|_| VecDeque::new()).collect();
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for rank in 0..n {
            self.state.borrow_mut().schedule(rank, 0.0);
        }
        let mut live = n;
        while live > 0 {
            let rank = {
                let st = &mut *self.state.borrow_mut();
                let Some(Reverse((at, _, rank))) = st.heap.pop() else {
                    let live = (0..n).filter(|&r| !st.exited[r]).collect();
                    return Err(SimError::Deadlock { seed, live });
                };
                if at != st.due[rank].to_bits() {
                    continue;
                }
                if st.stats.polls == poll_budget {
                    let polls = poll_budget;
                    return Err(SimError::PollBudget { seed, polls });
                }
                st.stats.polls += 1;
                st.stats.wakeups += usize::from(st.waiting[rank].take().is_some());
                st.due[rank] = f64::INFINITY;
                st.clock[rank] = st.clock[rank].max(f64::from_bits(at));
                st.polling = rank;
                rank
            };
            let mut ctx = VCtx::new(rank, n, self, &mut buffers[rank]);
            let outcome = machines[rank]
                .get_or_insert_with(|| machine(rank))
                .poll(&mut ctx);
            let st = &mut *self.settled();
            let now = st.clock[rank];
            match outcome {
                Poll::Ready => st.schedule(rank, now),
                Poll::Wait(mut pred) => {
                    let at = if buffers[rank].iter().any(&mut pred) {
                        Some(now)
                    } else {
                        let mut arrivals = st.inbox[rank].iter();
                        arrivals.find(|(_, e)| pred(e)).map(|(at, _)| at.max(now))
                    };
                    st.waiting[rank] = Some(pred);
                    if let Some(at) = at {
                        st.schedule(rank, at);
                    }
                }
                Poll::Exit(out) => {
                    results[rank] = Some(out);
                    live -= 1;
                    st.exited[rank] = true;
                    // what it never received is lost too, as under the pool
                    let unread = st.inbox[rank].len() + buffers[rank].len();
                    st.lose(unread, now);
                    st.inbox[rank].clear();
                }
            }
        }
        let st = self.state.borrow();
        let results = results.into_iter().map(Option::unwrap).collect();
        Ok(SimRun {
            run: RuntimeRun {
                results,
                stats: st.stats,
            },
            clocks: st.clock.clone(),
            first_drop: st.first_drop,
            charged: self.meter.charged.lock().expect("one thread").2.clone(),
        })
    }
}

impl<M: Send> Port<M> for Sim<M> {
    fn send(&self, to: usize, env: Envelope<M>) {
        let st = &mut *self.settled();
        let sent = st.clock[env.from];
        if st.exited.get(to) != Some(&false) {
            return st.lose(1, sent);
        }
        // per-(sender, destination) FIFO: never before the sender's
        // latest message still queued there
        let earlier = st.inbox[to].iter().rev().find(|(_, e)| e.from == env.from);
        let floor = earlier.map_or(0.0, |(at, _)| *at);
        let at = (sent + self.latency * (1.0 + st.rng.random::<f64>())).max(floor);
        if st.waiting[to].as_mut().is_some_and(|pred| pred(&env)) {
            let wake = at.max(st.clock[to]);
            st.schedule(to, wake);
        }
        let slot = st.inbox[to].partition_point(|(other, _)| *other <= at);
        st.inbox[to].insert(slot, (at, env));
    }

    fn pull(&self, rank: usize, buffer: &mut VecDeque<Envelope<M>>) {
        let st = &mut *self.settled();
        let now = st.clock[rank];
        let visible = st.inbox[rank].partition_point(|(at, _)| *at <= now);
        buffer.extend(st.inbox[rank].drain(..visible).map(|(_, env)| env));
        st.clock[rank] += visible as f64 * self.service[rank];
    }

    fn now(&self, rank: usize) -> f64 {
        self.settled().clock[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests::FnRank;

    type Machine = Box<dyn VirtualRank<usize, Output = Vec<usize>> + Send>;

    /// Ranks 1 and 2 each send ten numbered messages to rank 0 at time
    /// zero; rank 0 exits with what it received, in the order received.
    fn fan_in(seed: u64, latency: f64) -> SimRun<Vec<usize>> {
        let sim = Sim::new(seed, latency, 0.0, vec![0.0; 3]);
        let run = sim.run(1000, |rank| -> Machine {
            let mut got = Vec::new();
            Box::new(FnRank(move |ctx: &mut VCtx<'_, usize>| {
                if rank > 0 {
                    (0..10).for_each(|i| ctx.send(0, 100 * rank + i));
                    return Poll::Exit(Vec::new());
                }
                got.extend(std::iter::from_fn(|| ctx.try_recv()).map(|env| env.msg));
                if got.len() < 20 {
                    return Poll::Wait(Box::new(|_| true));
                }
                Poll::Exit(std::mem::take(&mut got))
            }))
        });
        run.expect("fan-in finishes")
    }

    #[test]
    fn sender_order_survives_any_delay_draw() {
        let mut orders = std::collections::BTreeSet::new();
        for seed in 0..50 {
            let got = &fan_in(seed, 1.0).run.results[0];
            for sender in [1, 2] {
                let from: Vec<usize> = got.iter().copied().filter(|m| m / 100 == sender).collect();
                let sent: Vec<usize> = (0..10).map(|i| 100 * sender + i).collect();
                assert_eq!(from, sent, "seed {seed}: sender {sender} reordered");
            }
            orders.insert(got.clone());
        }
        // the delays do explore: the two senders interleave differently
        assert!(orders.len() > 10, "only {} interleavings", orders.len());
    }

    #[test]
    fn same_seed_same_polls_and_clocks() {
        let (a, b, c) = (fan_in(7, 1.0), fan_in(7, 1.0), fan_in(8, 1.0));
        assert_eq!(a.run.results, b.run.results);
        assert_eq!(a.run.stats.polls, b.run.stats.polls);
        assert_eq!(a.clocks, b.clocks);
        assert_ne!(a.clocks, c.clocks, "another seed draws other delays");
    }

    #[test]
    fn a_message_is_invisible_until_the_receivers_clock_reaches_its_stamp() {
        // rank 1 works 4.5 s, then sends; rank 0 looks once a second
        let sim = Sim::new(3, 0.0, 0.0, vec![0.0; 2]);
        let run = sim.run(100, |rank| {
            let meter = Arc::clone(&sim.meter);
            Box::new(FnRank(move |ctx: &mut VCtx<'_, ()>| {
                if rank == 1 {
                    meter.charge(0, 4.5);
                    ctx.send(0, ());
                    return Poll::Exit(ctx.now());
                }
                if ctx.try_recv().is_some() {
                    return Poll::Exit(ctx.now());
                }
                meter.charge(1, 1.0);
                Poll::Ready
            })) as Box<dyn VirtualRank<(), Output = f64> + Send>
        });
        let run = run.expect("finishes");
        assert_eq!(run.run.results, [5.0, 4.5]);
        assert_eq!(run.charged, [4.5, 5.0]);
        assert_eq!(run.run.stats.polls, 6 + 1);
    }

    #[test]
    fn a_run_that_cannot_finish_is_an_error_carrying_the_seed() {
        let stuck = |wait: bool| -> Machine {
            Box::new(FnRank(move |_: &mut VCtx<'_, usize>| match wait {
                true => Poll::Wait(Box::new(|_| true)),
                false => Poll::Ready,
            }))
        };
        let mutual_wait = Sim::new(41, 0.0, 0.0, vec![0.0; 2]).run(100, |_| stuck(true));
        let live = vec![0, 1];
        let deadlock = SimError::Deadlock { seed: 41, live };
        assert_eq!(mutual_wait.err(), Some(deadlock));
        let spin = Sim::new(42, 0.0, 0.0, vec![0.0; 2]).run(100, |_| stuck(false));
        let polls = 100;
        assert_eq!(spin.err(), Some(SimError::PollBudget { seed: 42, polls }));
    }
}
