//! Multi-process TCP transport under the [`crate::runtime`] pool.
//!
//! One **driver** process hosts the fixed ranks (root, phonebook,
//! collectors) plus any controller remainder; each **worker** process
//! hosts a contiguous block of controller ranks. Every process runs the
//! [`crate::roles`] machines of its ranks on a worker pool: the driver
//! end is a placement of a [`Run`] ([`Placement::Net`]), the worker end
//! [`net_worker`]. The transport only carries the sends to ranks hosted
//! elsewhere, as checked frames over per-peer sockets, so a net run in
//! the deterministic regime is digest-identical to the in-process runs
//! (`tests/net_conformance.rs`).
//!
//! Each end moves frames the same way: every frame a process sends — its
//! ranks' and the forwards its readers pass on — goes through one channel
//! to one writer thread, and one reader thread per socket delivers into
//! the pool in arrival order. TCP keeps the rest, so each sender's full
//! program order across destinations holds (the role protocol relies on
//! it: a `ServeDone` lands before the `CoarseSample` sent after it). A
//! process runs O(cores) threads however many ranks it hosts.
//!
//! Who hosts which rank is fixed for a **segment**, an ordinary [`Run`]
//! from `Assign` to the last `Bye`: a membership change stops the run at
//! a checkpoint barrier and the next segment resumes every rank from
//! that barrier's [`RunSnapshot`]. A socket that dies outside a planned
//! departure stops the whole run (fail-stop; the snapshot store is the
//! recovery path). See `DESIGN.md` §9.

use crate::obs::{Counter, Tracer};
use crate::roles::{
    ControllerRank, Machine, PhonebookStats, Placement, Run, RuntimeConfig, RuntimeReport,
};
use crate::runtime::{Envelope, Runtime, RuntimeStats, Shared};
use crate::scheduler::{
    Msg, ParallelCheckpoint, ParallelConfig, ParallelLevelReport, ParallelReport,
};
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uq_mlmcmc::store::{fnv1a, ChainCkpt, Codec, Enc, RunSnapshot, RunStore, StoreError};
use uq_mlmcmc::wire::{codec, frame_decode, frame_encode, frame_read, FrameFormat};
use uq_mlmcmc::LevelFactory;

/// Version stamped into every frame header. Bump on any change to the
/// [`Msg`] or [`Frame`] declarations below (a tag or a field's place) or
/// to the frame layout — the committed
/// golden frame fixture (`tests/fixtures/golden_frame_v9.bin`) trips
/// when the bytes drift without a bump. Exactly one version is spoken:
/// v8 (which had a teardown poison, a second shutdown ack beside
/// `PhonebookReport`, and a `ServeDone` echoing the lease's session seed)
/// is rejected as `BadVersion`, never dual-decoded.
pub const PROTOCOL_VERSION: u32 = 9;

/// The net wire: a magic distinct from the snapshot store's
/// `b"UQSNAP\0\0"` so a frame can never be mistaken for a snapshot, and
/// a 1 GiB payload cap (a longer claim is a corrupt length field).
const NET_FORMAT: FrameFormat = FrameFormat {
    magic: b"UQNETFR\0",
    version: PROTOCOL_VERSION,
    max_len: 1 << 30,
};

// ---------------------------------------------------------------------
// Msg wire codec: each type's layout, stated once
// ---------------------------------------------------------------------

codec! { struct ParallelConfig {
    samples_per_level, burn_in, chains_per_level, load_balancing, record_samples, seed, pairing,
} }

codec! { struct PhonebookStats { wakeups, messages, max_batch, routed, reassignments, ledger } }

codec! { enum Msg {
    0 => CoarseRequest { level, reply_to, anchor, mate },
    1 => Serve { reply_to, lease },
    2 => CoarseSample { level, sample },
    3 => ServeDone { requester, level, serves, pairing, diverged },
    4 => SampleReady { level },
    5 => Correction { level, y, theta, fine_qoi, coarse_qoi },
    6 => LevelDone { level },
    7 => StopProducing { level },
    8 => Reassign { level },
    9 => Shutdown,
    10 => PhonebookReport(stats),
    11 => CollectorReport(data),
    12 => ControllerReport { evals, eval_secs },
    13 => CheckpointTick,
    14 => Checkpoint,
    15 => CheckpointFlush,
    16 => ControllerCkpt(ckpt),
    17 => CollectorCkpt(ckpt),
    18 => LedgerCkpt(state),
    19 => CheckpointDone,
} }

// ---------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------

/// Everything that crosses a socket.
#[derive(Debug)]
pub enum Frame {
    /// Worker → driver on connect. `join` workers are queued for
    /// admission at a later barrier; `leave_at_barrier = Some(k)`
    /// declares a planned departure at the `k`-th checkpoint barrier.
    Hello {
        join: bool,
        leave_at_barrier: Option<u64>,
    },
    /// Driver → worker, once per segment: your ranks, the run
    /// configuration and the resume state of each rank (empty on a fresh
    /// start).
    Assign {
        n_ranks: usize,
        ranks: Vec<usize>,
        config: ParallelConfig,
        ckpts: Vec<ChainCkpt>,
    },
    /// Worker → driver: ranks hosted — safe to route.
    Ready,
    /// A scheduler message in flight between ranks on different
    /// processes.
    Data { to: usize, from: usize, msg: Msg },
    /// Worker → driver: every rank of this segment's `Assign` has exited,
    /// nothing of theirs follows — so an EOF without a preceding `Bye` is
    /// a crash. Driver → worker: you are released while the run goes on
    /// (a planned departure, a joiner there was never room for); at the
    /// end of the run the driver hangs up instead.
    Bye,
}

codec! { enum Frame {
    0 => Hello { join, leave_at_barrier },
    1 => Assign { n_ranks, ranks, config, ckpts },
    2 => Ready,
    3 => Data { to, from, msg },
    4 => Bye,
} }

/// Encode one frame into its full on-wire byte form
/// ([`uq_mlmcmc::wire::frame_encode`] under `NET_FORMAT`).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    frame_encode(&NET_FORMAT, frame)
}

/// Decode one full on-wire frame (the exact inverse of
/// [`encode_frame`]); rejects bad magic, version skew, length lies,
/// checksum mismatches and trailing bytes.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, StoreError> {
    frame_decode(&NET_FORMAT, bytes)
}

/// Write one frame to a stream, counting it in the tracer.
fn write_frame(w: &mut impl Write, frame: &Frame, tracer: &Tracer) -> io::Result<()> {
    let bytes = encode_frame(frame);
    w.write_all(&bytes)?;
    tracer.incr(Counter::NetFramesOut);
    tracer.add(Counter::NetBytesOut, bytes.len() as u64);
    Ok(())
}

/// Read one frame from a stream, counting it in the tracer. Corruption
/// (bad magic/version/checksum) surfaces as `InvalidData`, a stream
/// that ends — even at a frame boundary — as `UnexpectedEof`: a peer
/// says `Bye` before it closes.
fn read_frame(r: &mut impl Read, tracer: &Tracer) -> io::Result<Frame> {
    let (frame, wire_len) = frame_read(&NET_FORMAT, r)?.ok_or(io::ErrorKind::UnexpectedEof)?;
    tracer.incr(Counter::NetFramesIn);
    tracer.add(Counter::NetBytesIn, wire_len as u64);
    Ok(frame)
}

// ---------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------

/// FNV-1a digest over the statistically meaningful content of a run's
/// level reports (everything except wall-clock timings): the value two
/// runs must share to count as bit-identical in the conformance suites.
pub fn levels_digest(levels: &[ParallelLevelReport]) -> u64 {
    let mut enc = Enc::new();
    levels.len().encode(&mut enc);
    for lvl in levels {
        lvl.level.encode(&mut enc);
        lvl.n_samples.encode(&mut enc);
        lvl.mean_correction.encode(&mut enc);
        lvl.var_correction.encode(&mut enc);
        lvl.theta_samples.encode(&mut enc);
        lvl.correction_pairs.encode(&mut enc);
    }
    fnv1a(&enc.into_bytes())
}

// ---------------------------------------------------------------------
// The wire: one writer thread, one reader per socket
// ---------------------------------------------------------------------

/// Start one of the net's threads: a writer, a reader or the acceptor.
fn spawn<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> JoinHandle<T> {
    let named = std::thread::Builder::new().name(name.into());
    // fail-stop: a process the OS refuses a thread cannot move frames at all
    named.spawn(f).expect("net: thread spawn failed")
}

/// Wait for a net thread; if it failed stop, its panic goes on here.
fn join<T>(thread: JoinHandle<T>) -> T {
    thread.join().unwrap_or_else(|panic| resume_unwind(panic))
}

/// One process's end of a segment: one writer, one reader per socket.
struct Wire {
    /// This end and the other, as a fail-stop names them.
    ends: [&'static str; 2],
    sockets: Vec<Arc<TcpStream>>,
    /// The socket behind each rank; `None`: hosted here.
    routes: Vec<Option<usize>>,
    /// To the writer: a socket and its frame; `None` ends it.
    outbox: Sender<Option<(usize, Frame)>>,
    /// Every rank hosted here has exited: a reader returns what ends its
    /// socket and a failed write is a dropped send; before, both fail stop.
    end_expected: AtomicBool,
    dropped: AtomicUsize,
    tracer: Tracer,
}

impl Wire {
    /// The wire of `sockets`, its writer running, and the mailboxes of the
    /// ranks `routes` leaves here, hosted on `runtime`.
    fn start(
        runtime: &Runtime,
        ends: [&'static str; 2],
        sockets: Vec<Arc<TcpStream>>,
        routes: impl Iterator<Item = Option<usize>>,
        tracer: &Tracer,
    ) -> (Arc<Self>, Arc<Shared<Msg>>, JoinHandle<()>) {
        let routes: Vec<_> = routes.collect();
        let n_ranks = routes.len();
        let hosted: Vec<usize> = (0..n_ranks).filter(|&r| routes[r].is_none()).collect();
        let (outbox, outgoing) = crossbeam::channel::unbounded();
        let wire = Arc::new(Self {
            ends,
            sockets,
            routes,
            outbox,
            end_expected: AtomicBool::new(false),
            dropped: AtomicUsize::new(0),
            tracer: tracer.clone(),
        });
        let writer = Arc::clone(&wire);
        let writer = spawn("uq-net-writer", move || writer.write(outgoing));
        // the pool relays only the ranks it does not host: routed ones
        let relay = Arc::clone(&wire);
        let relay = move |to: usize, Envelope { from, msg }: Envelope<Msg>| {
            if let Some(i) = relay.routes[to] {
                relay.send(i, Frame::Data { to, from, msg });
            }
        };
        let pool = runtime.host(n_ranks, hosted, Box::new(relay), tracer.steal_probe());
        (wire, pool, writer)
    }

    /// Queue `frame` for socket `i` (the writer outlives every sender).
    fn send(&self, i: usize, frame: Frame) {
        let _ = self.outbox.send(Some((i, frame)));
    }

    /// The writer thread: every frame queued, in order, until `None`.
    fn write(&self, outgoing: Receiver<Option<(usize, Frame)>>) {
        let [me, peer] = self.ends;
        for (i, frame) in outgoing.iter().map_while(|queued| queued) {
            if let Err(e) = write_frame(&mut &*self.sockets[i], &frame, &self.tracer) {
                let expected = self.end_expected.load(Ordering::Acquire);
                assert!(expected, "net {me}: write to {peer} failed: {e}");
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Start the reader thread of socket `i`, delivering into `pool`.
    fn reader(self: &Arc<Self>, i: usize, pool: Arc<Shared<Msg>>) -> JoinHandle<io::Result<Frame>> {
        let wire = Arc::clone(self);
        spawn("uq-net-reader", move || wire.read(i, &pool))
    }

    /// Socket `i`'s frames up to its last: `Data` into `pool`, or onto the
    /// writer's channel for a rank behind another socket. A `Bye` is a
    /// last frame at any time, anything else only once the end is
    /// expected: before, it fails stop.
    fn read(&self, i: usize, pool: &Shared<Msg>) -> io::Result<Frame> {
        let [me, peer] = self.ends;
        loop {
            match read_frame(&mut &*self.sockets[i], &self.tracer) {
                Ok(Frame::Data { to, from, msg }) => match self.routes.get(to).copied().flatten() {
                    Some(j) if j != i => self.send(j, Frame::Data { to, from, msg }),
                    // hosted here — or out of range or back where it came
                    // from, which the pool counts and drops
                    _ => pool.deliver(to, Envelope { from, msg }),
                },
                Ok(Frame::Bye) => return Ok(Frame::Bye),
                last if self.end_expected.load(Ordering::Acquire) => return last,
                // fail-stop until ROADMAP 1(b): a peer off protocol is a dead peer
                Ok(f) => panic!("net {me}: unexpected frame from {peer}: {f:?}"),
                // fail-stop until ROADMAP 1(b): EOF before the end is a dead peer
                Err(e) => panic!("net {me}: connection to {peer} lost: {e}"),
            }
        }
    }

    /// End the writer after what is queued; returns the sends dropped.
    fn finish(&self, writer: JoinHandle<()>) -> usize {
        let _ = self.outbox.send(None);
        join(writer);
        self.dropped.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// How long a peer that connected may take to say [`Frame::Hello`]. One
/// that stays silent is hung up on: it cannot hold the rendezvous, the
/// acceptor or (through the teardown join) a finished run.
const HELLO_DEADLINE: Duration = Duration::from_secs(2);

/// How long a segment waits for a peer at either end of it: for the
/// [`Frame::Ready`] that answers its `Assign`, and — once every rank
/// hosted here has exited — for the [`Frame::Bye`] that ends its share.
const SEGMENT_DEADLINE: Duration = Duration::from_secs(30);

/// The next frame from `stream`, waited for no longer than `deadline`.
fn read_within(stream: &TcpStream, deadline: Duration, tracer: &Tracer) -> io::Result<Frame> {
    stream.set_read_timeout(Some(deadline))?;
    let frame = read_frame(&mut &*stream, tracer);
    stream.set_read_timeout(None)?;
    frame
}

/// A peer that said `Hello`, and its ranks (none while it is queued).
struct Peer {
    stream: Arc<TcpStream>,
    leave_at_barrier: Option<u64>,
    ranks: Vec<usize>,
}

/// Hang up on a peer between segments: after a `Bye` if it is let go
/// while the run goes on or never got ranks, without one at the run's end.
fn hang_up(stream: &TcpStream, bye: bool, tracer: &Tracer) {
    if bye {
        let _ = write_frame(&mut &*stream, &Frame::Bye, tracer);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// The peers the acceptor queued: the rendezvous takes its workers from
/// here, a barrier its joiner.
#[derive(Default)]
struct Lobby {
    queue: Mutex<Queue>,
    arrived: Condvar,
}

#[derive(Default)]
struct Queue {
    /// The rendezvous's workers; `joiners`: everyone else, in arrival order.
    initial: Vec<Peer>,
    joiners: VecDeque<Peer>,
    /// The acceptor has stopped: nobody is queued from now on.
    closed: bool,
}

impl Lobby {
    /// The acceptor, from the start of [`NetDriver::drive`] to the end of
    /// the run: it queues every caller that says `Hello` in time; one that
    /// comes after the rendezvous's `workers` is a reconnect.
    fn accept(&self, listener: TcpListener, workers: usize, tracer: &Tracer) {
        let mut initial = 0;
        while let Ok((stream, _)) = listener.accept() {
            // once the lobby is closed, this is `drive` waking the acceptor
            if self.queue.lock().closed {
                return;
            }
            let _ = stream.set_nodelay(true);
            // bad or missing handshake: hang up, keep accepting
            let Ok(Frame::Hello {
                join,
                leave_at_barrier,
            }) = read_within(&stream, HELLO_DEADLINE, tracer)
            else {
                continue;
            };
            let peer = Peer {
                stream: Arc::new(stream),
                leave_at_barrier,
                ranks: Vec::new(),
            };
            let late = initial == workers;
            tracer.add(Counter::NetReconnects, u64::from(late));
            let mut queue = self.queue.lock();
            if join || late {
                queue.joiners.push_back(peer);
            } else {
                initial += 1;
                queue.initial.push(peer);
            }
            self.arrived.notify_all();
        }
        // `accept` failed: the rendezvous must not wait for nobody
        self.queue.lock().closed = true;
        self.arrived.notify_all();
    }

    /// Block until the rendezvous's `workers` have arrived and take them.
    fn rendezvous(&self, workers: usize) -> Vec<Peer> {
        let mut queue = self.queue.lock();
        while queue.initial.len() < workers {
            assert!(!queue.closed, "net driver: accept failed");
            queue = self.arrived.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
        std::mem::take(&mut queue.initial)
    }
}

/// One segment: `run` from `Assign` to the last `Bye`, `peers` hosting
/// their ranks and `runtime` the rest, on a [`Wire`] of its own.
fn segment(runtime: &Runtime, run: &Run<'_>, peers: &[Peer]) -> RuntimeReport {
    let (config, tracer) = (&run.config.base, run.tracer);
    let n_ranks = config.n_ranks();
    let routes = (0..n_ranks).map(|r| peers.iter().position(|p| p.ranks.contains(&r)));
    let sockets = peers.iter().map(|peer| Arc::clone(&peer.stream)).collect();
    let ends = ["driver", "worker"];
    let (wire, pool, writer) = Wire::start(runtime, ends, sockets, routes, tracer);
    // Assign each worker its ranks, resumed from their share of the cut;
    // Ready gates routing
    for (i, peer) in peers.iter().enumerate() {
        let chain = |&rank: &usize| {
            let snap = run.resume?;
            Some(snap.chains[rank - config.first_controller_rank()].clone())
        };
        let assign = Frame::Assign {
            n_ranks,
            ranks: peer.ranks.clone(),
            config: config.clone(),
            ckpts: peer.ranks.iter().filter_map(chain).collect(),
        };
        wire.send(i, assign);
        match read_within(&peer.stream, SEGMENT_DEADLINE, tracer) {
            Ok(Frame::Ready) => {}
            // fail-stop until ROADMAP 1(b): the peer cannot take its ranks
            other => panic!(
                "net driver: the worker of ranks {:?} never became Ready: {other:?}",
                peer.ranks
            ),
        }
    }
    let reader = |i| wire.reader(i, Arc::clone(&pool));
    let readers: Vec<_> = (0..peers.len()).map(reader).collect();

    let (outs, mut stats) = runtime.drive(&pool, |rank, _| run.machine(rank));

    // the root has every controller's report, a rank's last send: all a
    // worker has left to say is `Bye`. A blocked read cannot be given a
    // timeout after the fact, so the deadline is kept from here
    wire.end_expected.store(true, Ordering::Release);
    let deadline = Instant::now() + SEGMENT_DEADLINE;
    for (peer, reader) in peers.iter().zip(readers) {
        while !reader.is_finished() {
            assert!(
                Instant::now() < deadline,
                "net driver: the worker of ranks {:?} never said Bye",
                peer.ranks
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        let _ = join(reader);
    }
    stats.dropped_sends += wire.finish(writer);
    RuntimeReport::assemble(outs.into_iter().map(|(_, out)| out).collect(), stats)
}

/// Add to a segment's `report` what the cut it resumed from does not
/// carry over from the segments before it: evaluation counts and time,
/// executor counters, elapsed time. Everything else — moments, sample
/// counts, ledger statistics — the cut does carry.
fn add_earlier(report: &mut RuntimeReport, earlier: &RuntimeReport) {
    for (level, before) in report.report.levels.iter_mut().zip(&earlier.report.levels) {
        let eval_ms = level.mean_eval_ms * level.evaluations as f64
            + before.mean_eval_ms * before.evaluations as f64;
        level.evaluations += before.evaluations;
        level.mean_eval_ms = eval_ms / level.evaluations.max(1) as f64;
    }
    report.report.elapsed += earlier.report.elapsed;
    report.runtime += earlier.runtime;
}

/// Options of the [`NetDriver::run`] alias: its [`Placement::Net`]'s worker
/// count, its [`ParallelCheckpoint`]'s `every` / `store` / `config_hash`.
pub struct NetDriverOptions {
    /// Worker processes to wait for at rendezvous.
    pub workers: usize,
    /// Checkpoint every `every` top-level corrections (0 disables;
    /// membership changes at barriers, so joins/leaves require this and
    /// a `store`).
    pub every: usize,
    /// Snapshot store (also the recovery point on fail-stop).
    pub store: Option<Arc<RunStore>>,
    /// Configuration hash stamped into snapshots.
    pub config_hash: u64,
}

/// What [`NetDriver::run`] returns: three fields of its run's report.
pub struct NetReport {
    pub report: ParallelReport,
    /// Ranks whose host changed at a membership change.
    pub migrations: u64,
    /// Sends dropped across the whole driver process (out-of-range or
    /// exited destinations).
    pub dropped_sends: usize,
}

/// The driver endpoint: binds the rendezvous address; a
/// [`Placement::Net`] then assembles one logical universe from this
/// process plus the worker processes that dial it.
pub struct NetDriver {
    listener: TcpListener,
    addr: SocketAddr,
}

impl NetDriver {
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self { listener, addr })
    }

    /// The bound address (pass to workers; `bind("127.0.0.1:0")` picks
    /// a free port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Compatibility alias (ROADMAP item 7(d) removes it): a [`Run`] of
    /// `config` — checkpointed into `opts.store` if there is one, never
    /// stopped, never resumed — on [`Placement::Net`] with a pool as wide
    /// as this host, re-shaped into a [`NetReport`].
    pub fn run(
        self,
        factory: Arc<dyn LevelFactory>,
        config: &ParallelConfig,
        opts: &NetDriverOptions,
        tracer: &Tracer,
    ) -> NetReport {
        let runtime = Runtime::for_host();
        let config = RuntimeConfig {
            base: config.clone(),
            n_workers: runtime.n_workers(),
            collector_shards: 1,
        };
        let ckpt = opts.store.as_ref().map(|store| ParallelCheckpoint {
            store,
            config_hash: opts.config_hash,
            every: opts.every,
            on_snapshot: None,
            stop: None,
        });
        let run = Run::new(&*factory, &config, tracer, ckpt.as_ref(), None);
        let done = run.on(Placement::Net {
            runtime: &runtime,
            driver: self,
            workers: opts.workers,
        });
        // unreachable: only `Placement::Sim` returns an error
        let done = done.expect("a live run");
        NetReport {
            report: done.report,
            // unreachable: `drive` always reports its migrations
            migrations: done.migrations.expect("a net placement counts them"),
            dropped_sends: done.runtime.dropped_sends,
        }
    }

    /// The net arm of [`Run::on`]: `run`'s fixed ranks (and any
    /// controller remainder) on `runtime`, its controllers in `workers`
    /// blocks on the peers that dial in — one [`segment`] after another,
    /// each an ordinary [`Run`] resumed from the cut the one before it
    /// stopped at, until one ends for a reason other than a membership
    /// change. A change is due at a barrier that a peer named in its
    /// `Hello` (its ranks come home) or that finds a joiner queued while
    /// controllers are hosted here (it gets half of them); the barrier's
    /// hook then raises the root's `stop`, unless the caller's own is up.
    pub(crate) fn drive(self, runtime: &Runtime, run: &Run<'_>, workers: usize) -> RuntimeReport {
        let (config, tracer) = (&run.config.base, run.tracer);
        let first_ctrl = config.first_controller_rank();
        let n_ctrl = config.n_controllers();
        assert!(workers >= 1, "net driver: need at least one worker");
        assert!(
            workers <= n_ctrl,
            "net driver: more workers than controller ranks"
        );

        // one acceptor queues every peer that says Hello until the run
        // ends; at the rendezvous each initial worker gets a contiguous
        // block of controllers, the remainder stays here
        let (addr, lobby) = (self.local_addr(), Arc::new(Lobby::default()));
        let accept = {
            let (lobby, tracer) = (Arc::clone(&lobby), tracer.clone());
            move || lobby.accept(self.listener, workers, &tracer)
        };
        let acceptor = spawn("uq-net-acceptor", accept);
        let per = n_ctrl / workers;
        let mut peers = lobby.rendezvous(workers);
        for (i, peer) in peers.iter_mut().enumerate() {
            let first = first_ctrl + i * per;
            peer.ranks = (first..first + per).collect();
        }

        let barriers = AtomicU64::new(0);
        let mut migrations = 0;
        let (mut cut, mut earlier) = (None::<RunSnapshot>, None::<RuntimeReport>);
        let report = loop {
            // the controllers hosted here: what a joiner can be given
            let home: Vec<usize> = (first_ctrl..config.n_ranks())
                .filter(|rank| !peers.iter().any(|p| p.ranks.contains(rank)))
                .collect();
            let (stop, change) = (AtomicBool::new(false), Mutex::new(None));
            let hook = |samples_done: usize, hash: &str| {
                if let Some(hook) = run.checkpoint.and_then(|caller| caller.on_snapshot) {
                    hook(samples_done, hash);
                }
                let barrier = barriers.fetch_add(1, Ordering::SeqCst) + 1;
                // the caller's stop wins: its run ends here, as it is
                let stopped = run.checkpoint.and_then(|caller| caller.stop);
                let stopped = stopped.is_some_and(|s| s.load(Ordering::SeqCst));
                let due = peers.iter().any(|p| p.leave_at_barrier == Some(barrier))
                    || !(home.is_empty() || lobby.queue.lock().joiners.is_empty());
                if due && !stopped {
                    *change.lock() = Some((barrier, hash.to_string()));
                }
                stop.store(due || stopped, Ordering::SeqCst);
            };
            let ckpt = run.checkpoint.map(|caller| ParallelCheckpoint {
                on_snapshot: Some(&hook),
                stop: Some(&stop),
                ..*caller
            });
            let resume = cut.as_ref().or(run.resume);
            let resumed = Run::new(run.factory, run.config, tracer, ckpt.as_ref(), resume);
            let mut report = segment(runtime, &resumed, &peers);
            if let Some(earlier) = &earlier {
                add_earlier(&mut report, earlier);
            }
            let Some((barrier, hash)) = change.into_inner() else {
                break report;
            };

            // the next segment resumes every rank from this barrier's cut:
            // a leaver's on this process, one joiner's share of `home` on it
            // unreachable: only the checkpoint hook records a change
            let caller = run.checkpoint.expect("a barrier has a checkpoint policy");
            let snapshot = caller.store.get_snapshot_of(&hash, caller.config_hash);
            // fail-stop until ROADMAP 1(b): the cut just persisted reads back
            // broken, or as another configuration's
            cut = Some(snapshot.expect("net driver: the barrier's cut is unreadable"));
            earlier = Some(report);
            let mut moved = 0;
            peers.retain(|peer| {
                let leaves = peer.leave_at_barrier == Some(barrier);
                if leaves {
                    moved += peer.ranks.len();
                    hang_up(&peer.stream, true, tracer);
                }
                !leaves
            });
            let joiner = (!home.is_empty()).then(|| lobby.queue.lock().joiners.pop_front());
            if let Some(mut joiner) = joiner.flatten() {
                joiner.ranks = home[..home.len().div_ceil(2)].to_vec();
                moved += joiner.ranks.len();
                peers.push(joiner);
            }
            tracer.add(Counter::NetMigrations, moved as u64);
            migrations += moved as u64;
        };

        // the run is over: hang up on the workers, stop the acceptor —
        // woken from its `accept` the way `Service` wakes its own — and
        // turn away the joiners there was never room for
        for peer in &peers {
            hang_up(&peer.stream, false, tracer);
        }
        lobby.queue.lock().closed = true;
        let _ = TcpStream::connect(addr);
        join(acceptor);
        for peer in lobby.queue.lock().joiners.drain(..) {
            hang_up(&peer.stream, true, tracer);
        }
        RuntimeReport {
            migrations: Some(migrations),
            ..report
        }
    }
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

/// Worker-side options for [`net_worker`].
pub struct NetWorkerOptions {
    /// Driver rendezvous address (`host:port`).
    pub connect: String,
    /// Connect as an elastic joiner (admitted at a later checkpoint
    /// barrier) instead of an initial worker.
    pub join: bool,
    /// Declare a planned departure at the given checkpoint barrier
    /// (1-based); the driver takes this worker's ranks home there.
    pub leave_at_barrier: Option<u64>,
}

/// What a worker did.
pub struct NetWorkerReport {
    /// Controller ranks this process hosted (empty if the run ended
    /// before a joiner was admitted).
    pub ranks: Vec<usize>,
    /// The driver released this worker's ranks while the run went on,
    /// rather than hanging up at its end.
    pub retired: bool,
    /// This process's pool counters, over every segment it hosted.
    pub runtime: RuntimeStats,
}

/// Compatibility alias (ROADMAP item 7(d) removes it): [`net_worker`] on
/// a pool as wide as this host.
pub fn run_net_worker(
    factory: Arc<dyn LevelFactory>,
    opts: &NetWorkerOptions,
    tracer: &Tracer,
) -> NetWorkerReport {
    net_worker(&Runtime::for_host(), &*factory, opts, tracer)
}

/// The worker end of a [`Placement::Net`] — not a run of its own: each
/// `Assign` of the driver says which controller ranks of whose run to
/// host on `runtime` until they exit, and what follows the last one —
/// `Bye`, or the driver hanging up — ends it. Retries the connect for up
/// to 30 s so workers can start before the driver.
pub fn net_worker(
    runtime: &Runtime,
    factory: &dyn LevelFactory,
    opts: &NetWorkerOptions,
    tracer: &Tracer,
) -> NetWorkerReport {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut stream = loop {
        match TcpStream::connect(&opts.connect) {
            Ok(s) => break s,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "net worker: cannot reach driver at {}: {e}",
                    opts.connect
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    let _ = stream.set_nodelay(true);
    let hello = Frame::Hello {
        join: opts.join,
        leave_at_barrier: opts.leave_at_barrier,
    };
    // fail-stop until ROADMAP 1(b): the driver hung up before the handshake
    write_frame(&mut stream, &hello, tracer).expect("net worker: handshake failed");
    let stream = Arc::new(stream);
    let mut report = NetWorkerReport {
        ranks: vec![],
        retired: false,
        runtime: RuntimeStats::default(),
    };
    let mut next = read_frame(&mut &*stream, tracer);
    loop {
        match next {
            Ok(Frame::Assign {
                n_ranks,
                ranks,
                config,
                ckpts,
            }) => {
                // host `ranks` until every one has exited, and say `Bye`;
                // every other rank is behind the one socket
                let routes = (0..n_ranks).map(|r| (!ranks.contains(&r)).then_some(0));
                let (ends, sockets) = (["worker", "driver"], vec![Arc::clone(&stream)]);
                let (wire, pool, writer) = Wire::start(runtime, ends, sockets, routes, tracer);
                wire.send(0, Frame::Ready);
                let reader = wire.reader(0, Arc::clone(&pool));
                let config = RuntimeConfig {
                    base: config,
                    n_workers: runtime.n_workers(),
                    collector_shards: 1,
                };
                let (_, stats) = runtime.drive(&pool, |rank, _| {
                    let resume = ckpts.iter().find(|c| c.rank == rank);
                    Box::new(ControllerRank::new(factory, &config, tracer, rank, resume)) as Machine
                });
                // the ranks are gone, so the `Bye` is the last frame this
                // end writes; the driver may hang up on reading it, so end
                // of file now ends the run
                wire.end_expected.store(true, Ordering::Release);
                wire.send(0, Frame::Bye);
                report.runtime += stats;
                report.runtime.dropped_sends += wire.finish(writer);
                next = join(reader);
                report.ranks = ranks;
            }
            // released: the run goes on without this worker, or ended
            // before there was room for it
            Ok(Frame::Bye) => {
                report.retired = !report.ranks.is_empty();
                return report;
            }
            // fail-stop until ROADMAP 1(b): the driver is off protocol
            Ok(f) => panic!("net worker: unexpected frame: {f:?}"),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // fail-stop until ROADMAP 1(b): a frame failed its check
                panic!("net worker: corrupt frame from the driver: {e}")
            }
            // the driver hung up: the run is over
            Err(_) => return report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::SpanKind;
    use crate::roles::policy::GaussianHierarchy;

    /// Driver, a worker that leaves at barrier 1 and a joiner, each on a
    /// **one-worker** pool — the 1-core box: a segment boundary is a run
    /// that ended and a run that starts, so no rank ever waits for another
    /// that may be queued behind it on the one worker. The rank the leaver
    /// gives up comes home to the driver, then goes to the joiner.
    #[test]
    fn elastic_leave_and_join_complete_on_one_worker_pools() {
        let dir = std::env::temp_dir().join(format!("uq-net-1w-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = RuntimeConfig::new(vec![900, 150], vec![1, 1]);
        config.base.burn_in = vec![30, 20];
        config.base.load_balancing = false;
        let store = RunStore::open(&dir).expect("open store");
        let ckpt = ParallelCheckpoint {
            store: &store,
            config_hash: 19,
            every: 25,
            on_snapshot: None,
            stop: None,
        };
        let h = GaussianHierarchy::two_level();
        let driver = NetDriver::bind("127.0.0.1:0").expect("bind loopback");
        let addr = driver.local_addr().to_string();
        let (joiner_tracer, off) = (Tracer::new(), Tracer::disabled());
        let (net, joiner) = std::thread::scope(|s| {
            let worker = |join, leave_at_barrier, tracer| {
                let (h, connect) = (&h, addr.clone());
                s.spawn(move || {
                    let opts = NetWorkerOptions {
                        connect,
                        join,
                        leave_at_barrier,
                    };
                    net_worker(&Runtime::new(1), h, &opts, tracer)
                })
            };
            // the joiner's Hello is on the wire before anyone else dials,
            // so the rendezvous queues it ahead of the first barrier
            let joiner = worker(true, None, &joiner_tracer);
            while joiner_tracer.counter(Counter::NetFramesOut) == 0 {
                std::thread::yield_now();
            }
            let workers = [worker(false, Some(1), &off), worker(false, None, &off)];
            let run = Run::new(&h, &config, &off, Some(&ckpt), None);
            let net = run.on(Placement::Net {
                runtime: &Runtime::new(1),
                driver,
                workers: 2,
            });
            let [leaver, stayer] = workers.map(|w| w.join().expect("worker panicked"));
            assert!(leaver.retired && !stayer.retired);
            (net.expect("a live run"), joiner.join().expect("joiner"))
        });
        assert_eq!(net.migrations, Some(2), "one rank re-hosted, then donated");
        assert_eq!(joiner.ranks.len(), 1);
        let n_samples: Vec<usize> = net.report.levels.iter().map(|l| l.n_samples).collect();
        assert_eq!(n_samples, config.base.samples_per_level);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Both ends of a traced net run, each on a two-worker pool, mark
    /// every steal their pool counts: one `Steal` per steal (net processes
    /// once installed no steal observer, and nothing noticed). Equality
    /// holds at zero steals too, so how the run happens to schedule cannot
    /// fail it.
    #[test]
    fn a_traced_net_run_marks_every_steal_of_both_pools() {
        let mut config = RuntimeConfig::new(vec![3000, 600], vec![3, 3]);
        config.base.burn_in = vec![30, 20];
        config.base.load_balancing = false;
        let h = GaussianHierarchy::two_level();
        let driver = NetDriver::bind("127.0.0.1:0").expect("bind loopback");
        let connect = driver.local_addr().to_string();
        let (driver_tracer, worker_tracer) = (Tracer::new(), Tracer::new());
        let (net, worker) = std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let opts = NetWorkerOptions {
                    connect,
                    join: false,
                    leave_at_barrier: None,
                };
                net_worker(&Runtime::new(2), &h, &opts, &worker_tracer)
            });
            let run = Run::new(&h, &config, &driver_tracer, None, None);
            let net = run.on(Placement::Net {
                runtime: &Runtime::new(2),
                driver,
                workers: 1,
            });
            (
                net.expect("a live run"),
                worker.join().expect("worker panicked"),
            )
        });
        assert_eq!(worker.ranks.len(), 6, "every controller on the worker");
        let marks = |tracer: &Tracer| {
            let steals = tracer.events().into_iter();
            steals
                .filter(|e| matches!(e.kind, SpanKind::Steal { .. }))
                .count()
        };
        assert_eq!(marks(&driver_tracer), net.runtime.steals, "driver");
        assert_eq!(marks(&worker_tracer), worker.runtime.steals, "worker");
    }

    fn roundtrip(frame: &Frame) -> Frame {
        decode_frame(&encode_frame(frame)).expect("roundtrip failed")
    }

    #[test]
    fn frame_roundtrips() {
        match roundtrip(&Frame::Hello {
            join: true,
            leave_at_barrier: Some(3),
        }) {
            Frame::Hello {
                join,
                leave_at_barrier,
            } => {
                assert!(join);
                assert_eq!(leave_at_barrier, Some(3));
            }
            f => panic!("wrong frame: {f:?}"),
        }
        match roundtrip(&Frame::Data {
            to: 7,
            from: 4,
            msg: Msg::SampleReady { level: 1 },
        }) {
            Frame::Data { to, from, msg } => {
                assert_eq!((to, from), (7, 4));
                assert!(matches!(msg, Msg::SampleReady { level: 1 }));
            }
            f => panic!("wrong frame: {f:?}"),
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let good = encode_frame(&Frame::Ready);
        assert!(decode_frame(&good[..good.len() - 1]).is_err());
        let mut flipped = good.clone();
        flipped[22] ^= 0x01;
        assert!(matches!(
            decode_frame(&flipped),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            decode_frame(&trailing),
            Err(StoreError::TrailingBytes(1))
        ));
        let mut bad_version = good;
        bad_version[8] = 99;
        assert!(matches!(
            decode_frame(&bad_version),
            Err(StoreError::BadVersion { found: 99 })
        ));
    }
}
