//! Multi-process TCP transport under the [`crate::runtime`] pool.
//!
//! One **driver** process hosts the fixed ranks (root, phonebook,
//! collectors) plus any controller remainder; each **worker** process
//! hosts a contiguous block of controller ranks. Every process runs the
//! [`crate::roles`] machines of its ranks on a worker pool, as a
//! [`Placement::Pool`] does for a whole universe; the driver end is a
//! placement of the same [`Run`] ([`Placement::Net`]), the worker end is
//! [`net_worker`]. The transport only takes the sends to ranks hosted
//! elsewhere (the pool's relay), carrying them as length-prefixed, checksummed
//! frames over per-peer sockets, so a net run in the deterministic
//! regime is bit-for-bit digest-identical to the in-process runs (pinned
//! by `tests/net_conformance.rs`). A process runs O(cores) threads — the
//! pool, one socket writer, one reader per peer — however many ranks it
//! hosts.
//!
//! Ordering is the load-bearing invariant: the role protocol relies on
//! per-destination FIFO *and* on one cross-destination program-order
//! guarantee (a server's `ServeDone` to the phonebook is sent before the
//! requester's `CoarseSample`, so a session write-back always lands
//! before the next request against it). The transport preserves full
//! sender program order across destinations by funnelling every remote
//! send through a single relay channel per process into a single socket
//! — TCP then keeps that order, and the receiving side delivers frames
//! into the pool's rank slots in arrival order from a single reader
//! thread.
//!
//! Elastic membership rides the PR-6 checkpoint barrier: at a completed
//! barrier every chain is paused at a clean boundary, the ledger is
//! drained and nothing is in flight toward controllers, so a departing
//! worker's ranks (or ranks donated to a joiner) migrate as plain data —
//! the just-persisted [`RunSnapshot`] carries their chain state, and any
//! messages still unread in their slots travel alongside as
//! `leftovers`. See `DESIGN.md` §9.
//!
//! Failure semantics are fail-stop: a peer socket dying outside a
//! planned departure aborts the run (the snapshot store is the recovery
//! path), it is never silently dropped.

use crate::obs::{Counter, Tracer};
use crate::roles::{
    ControllerRank, ElasticOps, Machine, PhonebookStats, Placement, RoleOut, Run, RuntimeConfig,
};
use crate::runtime::{Envelope, Runtime, RuntimeStats, Shared};
use crate::scheduler::{
    CollectorData, Msg, ParallelCheckpoint, ParallelConfig, ParallelLevelReport, ParallelReport,
};
use crossbeam::channel::unbounded;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uq_mlmcmc::ledger::PairingMode;
use uq_mlmcmc::store::{fnv1a, ChainCkpt, Codec, Dec, Enc, RunSnapshot, RunStore, StoreError};
use uq_mlmcmc::wire::{frame_decode, frame_encode, frame_read, FrameFormat};
use uq_mlmcmc::LevelFactory;

/// Version stamped into every frame header. Bump on any change to the
/// [`Msg`] or [`Frame`] encodings or to the frame layout — the committed
/// golden frame fixture (`tests/fixtures/golden_frame_v2.bin`) trips
/// when the bytes drift without a bump. Exactly one version is spoken:
/// v1 (FNV-1a trailer) is rejected as `BadVersion`, never dual-decoded.
pub const PROTOCOL_VERSION: u32 = 2;

/// The net wire: a magic distinct from the snapshot store's
/// `b"UQSNAP\0\0"` so a frame can never be mistaken for a snapshot, and
/// a 1 GiB payload cap (a longer claim is a corrupt length field).
const NET_FORMAT: FrameFormat = FrameFormat {
    magic: b"UQNETFR\0",
    version: PROTOCOL_VERSION,
    max_len: 1 << 30,
};

// ---------------------------------------------------------------------
// Msg wire codec
// ---------------------------------------------------------------------

// `PairingMode` and the `Codec` trait are both foreign here, so the tag
// is folded into `ParallelConfig`'s own codec instead of an orphan impl.
fn encode_pairing(p: PairingMode, enc: &mut Enc) {
    let tag: u8 = match p {
        PairingMode::Proposal => 0,
        PairingMode::Ledger => 1,
    };
    tag.encode(enc);
}

fn decode_pairing(dec: &mut Dec) -> Result<PairingMode, StoreError> {
    match u8::decode(dec)? {
        0 => Ok(PairingMode::Proposal),
        1 => Ok(PairingMode::Ledger),
        _ => Err(StoreError::Corrupt("invalid PairingMode tag")),
    }
}

impl Codec for ParallelConfig {
    fn encode(&self, enc: &mut Enc) {
        self.samples_per_level.encode(enc);
        self.burn_in.encode(enc);
        self.chains_per_level.encode(enc);
        self.load_balancing.encode(enc);
        self.record_samples.encode(enc);
        self.seed.encode(enc);
        encode_pairing(self.pairing, enc);
        self.speculation.encode(enc);
    }

    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(Self {
            samples_per_level: Codec::decode(dec)?,
            burn_in: Codec::decode(dec)?,
            chains_per_level: Codec::decode(dec)?,
            load_balancing: Codec::decode(dec)?,
            record_samples: Codec::decode(dec)?,
            seed: Codec::decode(dec)?,
            pairing: decode_pairing(dec)?,
            speculation: Codec::decode(dec)?,
        })
    }
}

impl Codec for PhonebookStats {
    fn encode(&self, enc: &mut Enc) {
        self.wakeups.encode(enc);
        self.messages.encode(enc);
        self.max_batch.encode(enc);
        self.routed.encode(enc);
        self.reassignments.encode(enc);
        self.ledger.encode(enc);
    }

    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(Self {
            wakeups: Codec::decode(dec)?,
            messages: Codec::decode(dec)?,
            max_batch: Codec::decode(dec)?,
            routed: Codec::decode(dec)?,
            reassignments: Codec::decode(dec)?,
            ledger: Codec::decode(dec)?,
        })
    }
}

impl Codec for CollectorData {
    fn encode(&self, enc: &mut Enc) {
        self.level.encode(enc);
        self.n_samples.encode(enc);
        self.mean.encode(enc);
        self.variance.encode(enc);
        self.theta_samples.encode(enc);
        self.correction_pairs.encode(enc);
    }

    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(Self {
            level: Codec::decode(dec)?,
            n_samples: Codec::decode(dec)?,
            mean: Codec::decode(dec)?,
            variance: Codec::decode(dec)?,
            theta_samples: Codec::decode(dec)?,
            correction_pairs: Codec::decode(dec)?,
        })
    }
}

impl Codec for Msg {
    fn encode(&self, enc: &mut Enc) {
        match self {
            Msg::CoarseRequest {
                level,
                reply_to,
                anchor,
            } => {
                0u8.encode(enc);
                level.encode(enc);
                reply_to.encode(enc);
                anchor.encode(enc);
            }
            Msg::Serve {
                reply_to,
                lease,
                speculative,
            } => {
                1u8.encode(enc);
                reply_to.encode(enc);
                lease.encode(enc);
                speculative.encode(enc);
            }
            Msg::CoarseSample { level, sample } => {
                2u8.encode(enc);
                level.encode(enc);
                sample.encode(enc);
            }
            Msg::ServeDone {
                requester,
                level,
                session,
                serves,
                outcome,
                speculative,
            } => {
                3u8.encode(enc);
                requester.encode(enc);
                level.encode(enc);
                session.encode(enc);
                serves.encode(enc);
                outcome.encode(enc);
                speculative.encode(enc);
            }
            Msg::Poison => 4u8.encode(enc),
            Msg::SampleReady { level } => {
                5u8.encode(enc);
                level.encode(enc);
            }
            Msg::Correction {
                level,
                y,
                theta,
                fine_qoi,
                coarse_qoi,
            } => {
                6u8.encode(enc);
                level.encode(enc);
                y.encode(enc);
                theta.encode(enc);
                fine_qoi.encode(enc);
                coarse_qoi.encode(enc);
            }
            Msg::LevelDone { level } => {
                7u8.encode(enc);
                level.encode(enc);
            }
            Msg::StopProducing { level } => {
                8u8.encode(enc);
                level.encode(enc);
            }
            Msg::Reassign { level } => {
                9u8.encode(enc);
                level.encode(enc);
            }
            Msg::Shutdown => 10u8.encode(enc),
            Msg::PhonebookDown => 11u8.encode(enc),
            Msg::PhonebookReport(stats) => {
                12u8.encode(enc);
                stats.encode(enc);
            }
            Msg::CollectorReport(data) => {
                13u8.encode(enc);
                data.encode(enc);
            }
            Msg::ControllerReport { evals, eval_secs } => {
                14u8.encode(enc);
                evals.encode(enc);
                eval_secs.encode(enc);
            }
            Msg::CheckpointTick => 15u8.encode(enc),
            Msg::Checkpoint => 16u8.encode(enc),
            Msg::CheckpointFlush => 17u8.encode(enc),
            Msg::ControllerCkpt(ckpt) => {
                18u8.encode(enc);
                ckpt.encode(enc);
            }
            Msg::CollectorCkpt(ckpt) => {
                19u8.encode(enc);
                ckpt.encode(enc);
            }
            Msg::LedgerCkpt(state) => {
                20u8.encode(enc);
                state.encode(enc);
            }
            Msg::CheckpointDone => 21u8.encode(enc),
            Msg::Retire => 22u8.encode(enc),
        }
    }

    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(match u8::decode(dec)? {
            0 => Msg::CoarseRequest {
                level: Codec::decode(dec)?,
                reply_to: Codec::decode(dec)?,
                anchor: Codec::decode(dec)?,
            },
            1 => Msg::Serve {
                reply_to: Codec::decode(dec)?,
                lease: Codec::decode(dec)?,
                speculative: Codec::decode(dec)?,
            },
            2 => Msg::CoarseSample {
                level: Codec::decode(dec)?,
                sample: Codec::decode(dec)?,
            },
            3 => Msg::ServeDone {
                requester: Codec::decode(dec)?,
                level: Codec::decode(dec)?,
                session: Codec::decode(dec)?,
                serves: Codec::decode(dec)?,
                outcome: Codec::decode(dec)?,
                speculative: Codec::decode(dec)?,
            },
            4 => Msg::Poison,
            5 => Msg::SampleReady {
                level: Codec::decode(dec)?,
            },
            6 => Msg::Correction {
                level: Codec::decode(dec)?,
                y: Codec::decode(dec)?,
                theta: Codec::decode(dec)?,
                fine_qoi: Codec::decode(dec)?,
                coarse_qoi: Codec::decode(dec)?,
            },
            7 => Msg::LevelDone {
                level: Codec::decode(dec)?,
            },
            8 => Msg::StopProducing {
                level: Codec::decode(dec)?,
            },
            9 => Msg::Reassign {
                level: Codec::decode(dec)?,
            },
            10 => Msg::Shutdown,
            11 => Msg::PhonebookDown,
            12 => Msg::PhonebookReport(Codec::decode(dec)?),
            13 => Msg::CollectorReport(Codec::decode(dec)?),
            14 => Msg::ControllerReport {
                evals: Codec::decode(dec)?,
                eval_secs: Codec::decode(dec)?,
            },
            15 => Msg::CheckpointTick,
            16 => Msg::Checkpoint,
            17 => Msg::CheckpointFlush,
            18 => Msg::ControllerCkpt(Codec::decode(dec)?),
            19 => Msg::CollectorCkpt(Codec::decode(dec)?),
            20 => Msg::LedgerCkpt(Codec::decode(dec)?),
            21 => Msg::CheckpointDone,
            22 => Msg::Retire,
            _ => return Err(StoreError::Corrupt("invalid Msg tag")),
        })
    }
}

// ---------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------

/// A `(destination rank, sender rank, message)` triple carried across
/// a membership change: messages still queued in a retiring rank's
/// slot when it exits, re-delivered verbatim to its next host.
pub type Leftover = (usize, usize, Msg);

/// Everything that crosses a socket.
#[derive(Debug)]
pub enum Frame {
    /// Worker → driver on connect. `join` workers are queued for
    /// admission at a later barrier; `leave_at_barrier = Some(k)`
    /// declares a planned departure at the `k`-th checkpoint barrier.
    Hello {
        version: u32,
        join: bool,
        leave_at_barrier: Option<u64>,
    },
    /// Driver → worker: your ranks, the run configuration, resume state
    /// for each rank (empty on a fresh start) and any leftover messages
    /// to pre-load into their slots.
    Assign {
        n_ranks: usize,
        ranks: Vec<usize>,
        config: ParallelConfig,
        ckpts: Vec<ChainCkpt>,
        leftovers: Vec<Leftover>,
    },
    /// Worker → driver: ranks hosted, leftovers loaded — safe to route.
    Ready,
    /// A scheduler message in flight between ranks on different
    /// processes.
    Data { to: usize, from: usize, msg: Msg },
    /// Final frame on a connection. Workers always send one before
    /// closing (leftovers empty on a normal run end), so an EOF without
    /// a preceding `Bye` is a crash, not a departure.
    Bye { leftovers: Vec<Leftover> },
}

impl Codec for Frame {
    fn encode(&self, enc: &mut Enc) {
        match self {
            Frame::Hello {
                version,
                join,
                leave_at_barrier,
            } => {
                0u8.encode(enc);
                version.encode(enc);
                join.encode(enc);
                leave_at_barrier.encode(enc);
            }
            Frame::Assign {
                n_ranks,
                ranks,
                config,
                ckpts,
                leftovers,
            } => {
                1u8.encode(enc);
                n_ranks.encode(enc);
                ranks.encode(enc);
                config.encode(enc);
                ckpts.encode(enc);
                leftovers.encode(enc);
            }
            Frame::Ready => 2u8.encode(enc),
            Frame::Data { to, from, msg } => {
                3u8.encode(enc);
                to.encode(enc);
                from.encode(enc);
                msg.encode(enc);
            }
            Frame::Bye { leftovers } => {
                4u8.encode(enc);
                leftovers.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(match u8::decode(dec)? {
            0 => Frame::Hello {
                version: Codec::decode(dec)?,
                join: Codec::decode(dec)?,
                leave_at_barrier: Codec::decode(dec)?,
            },
            1 => Frame::Assign {
                n_ranks: Codec::decode(dec)?,
                ranks: Codec::decode(dec)?,
                config: Codec::decode(dec)?,
                ckpts: Codec::decode(dec)?,
                leftovers: Codec::decode(dec)?,
            },
            2 => Frame::Ready,
            3 => Frame::Data {
                to: Codec::decode(dec)?,
                from: Codec::decode(dec)?,
                msg: Codec::decode(dec)?,
            },
            4 => Frame::Bye {
                leftovers: Codec::decode(dec)?,
            },
            _ => return Err(StoreError::Corrupt("invalid Frame tag")),
        })
    }
}

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

/// [`levels_digest`] of a full report.
pub fn report_digest(report: &ParallelReport) -> u64 {
    levels_digest(&report.levels)
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// How long a peer that connected may take to say [`Frame::Hello`] — the
/// first thing a peer writes after `connect`. One that stays silent is
/// hung up on: it cannot hold the rendezvous, the listener or (through
/// the teardown join) a finished run.
const HELLO_DEADLINE: Duration = Duration::from_secs(2);

/// How long a barrier's membership changes may take before the run is
/// given up (a departing worker's `Bye`, a joiner's `Ready`).
const REHOST_DEADLINE: Duration = Duration::from_secs(30);

/// The `(join, leave_at_barrier)` of a peer that just connected; `None`
/// — hang up — on anything but a `Hello` within [`HELLO_DEADLINE`].
fn read_hello(stream: &mut TcpStream, tracer: &Tracer) -> Option<(bool, Option<u64>)> {
    stream.set_read_timeout(Some(HELLO_DEADLINE)).ok()?;
    let hello = read_frame(stream, tracer);
    stream.set_read_timeout(None).ok()?;
    match hello {
        Ok(Frame::Hello {
            join,
            leave_at_barrier,
            ..
        }) => Some((join, leave_at_barrier)),
        _ => None,
    }
}

/// One worker connection on the driver side.
struct PeerLink {
    /// Write half, serialized: the router, the downlinks (forwarding
    /// between workers) and the rehost handshake all write frames, and
    /// interleaved bytes would corrupt the stream.
    writer: Mutex<TcpStream>,
    ranks: Vec<usize>,
    leave_at_barrier: Option<u64>,
    /// Set by the downlink thread when the worker's [`Frame::Ready`]
    /// arrives (a joiner's: `rehost` holds the barrier until then).
    ready: AtomicBool,
    /// Set by the downlink thread when the worker's final [`Frame::Bye`]
    /// arrives; `rehost` collects a departing worker's leftover messages
    /// from it.
    bye: Mutex<Option<Vec<Leftover>>>,
    gone: AtomicBool,
}

impl PeerLink {
    fn new(stream: &TcpStream, ranks: Vec<usize>, leave_at_barrier: Option<u64>) -> Arc<Self> {
        Arc::new(Self {
            writer: Mutex::new(stream.try_clone().expect("net driver: stream clone failed")),
            ranks,
            leave_at_barrier,
            ready: AtomicBool::new(false),
            bye: Mutex::new(None),
            gone: AtomicBool::new(false),
        })
    }
}

/// A joiner admitted at this barrier and the driver-hosted ranks it is
/// given, until its `Assign` is written.
struct Donation {
    stream: TcpStream,
    ranks: Vec<usize>,
    /// Those of `ranks` that were told to retire and still run here.
    running: Vec<usize>,
    /// What the ones that exited left unread.
    leftovers: Vec<Leftover>,
}

/// Membership changes decided by `plan` and carried out by `rehost`, one
/// step per poll of the root (both run inside the same barrier, so the
/// handoff is a plain slot).
struct PlanOut {
    since: Instant,
    /// Peer indices departing at this barrier, `Bye` not yet in.
    leaves: Vec<usize>,
    donation: Option<Donation>,
    /// The admitted joiner after its `Assign`, until it said `Ready`.
    joining: Option<Arc<PeerLink>>,
}

struct DriverShared {
    /// The slots of the ranks hosted here (and, `Remote`, of the rest).
    pool: Arc<Shared<Msg>>,
    /// Which peer (an index into `peers`) hosts each rank; `None`: this
    /// process. Rewired at checkpoint barriers when ranks migrate; every
    /// relayed send consults the live table, so rewiring is a slot write.
    routes: Mutex<Vec<Option<usize>>>,
    peers: Mutex<Vec<Arc<PeerLink>>>,
    /// Workers that said `Hello { join: true }`, awaiting admission.
    joiners: Mutex<VecDeque<TcpStream>>,
    /// Barrier state of ranks re-hosted here whose machines are not
    /// built yet, by rank.
    resumes: Mutex<HashMap<usize, ChainCkpt>>,
    downlinks: Mutex<Vec<JoinHandle<()>>>,
    pending: Mutex<Option<PlanOut>>,
    /// Completed checkpoint barriers (identifies departure points).
    barrier: AtomicU64,
    /// Sends the transport lost (a departed peer, a closed relay).
    dropped: Arc<AtomicUsize>,
    shutdown: AtomicBool,
    tracer: Tracer,
    migrations: AtomicU64,
}

impl DriverShared {
    fn count_migration(&self) {
        self.migrations.fetch_add(1, Ordering::Relaxed);
        self.tracer.incr(Counter::NetMigrations);
    }
}

/// Deliver one message to wherever its destination rank lives.
fn deliver(sh: &DriverShared, to: usize, env: Envelope<Msg>) {
    let Some(i) = sh.routes.lock().get(to).copied().flatten() else {
        // hosted here — or out of range, which the pool counts and drops
        return sh.pool.deliver(to, env);
    };
    let peer = Arc::clone(&sh.peers.lock()[i]);
    if peer.gone.load(Ordering::Acquire) {
        sh.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let frame = Frame::Data {
        to,
        from: env.from,
        msg: env.msg,
    };
    let res = write_frame(&mut *peer.writer.lock(), &frame, &sh.tracer);
    if let Err(e) = res {
        if sh.shutdown.load(Ordering::Acquire) || peer.gone.load(Ordering::Acquire) {
            sh.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            panic!("net driver: write to worker failed: {e}");
        }
    }
}

fn spawn_downlink(
    sh: Arc<DriverShared>,
    peer: Arc<PeerLink>,
    mut reader: TcpStream,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("uq-net-downlink".into())
        .spawn(move || loop {
            match read_frame(&mut reader, &sh.tracer) {
                Ok(Frame::Data { to, from, msg }) => deliver(&sh, to, Envelope { from, msg }),
                Ok(Frame::Ready) => peer.ready.store(true, Ordering::Release),
                Ok(Frame::Bye { leftovers }) => {
                    *peer.bye.lock() = Some(leftovers);
                    peer.gone.store(true, Ordering::Release);
                    break;
                }
                Ok(f) => panic!("net driver: unexpected frame from worker: {f:?}"),
                Err(e) => {
                    if sh.shutdown.load(Ordering::Acquire) || peer.gone.load(Ordering::Acquire) {
                        break;
                    }
                    // no Bye before the socket died: fail-stop (the run
                    // store holds the recovery point)
                    panic!("net driver: connection to worker lost: {e}");
                }
            }
        })
        .expect("net driver: downlink thread spawn failed")
}

fn spawn_listener(sh: Arc<DriverShared>, listener: TcpListener) -> JoinHandle<()> {
    listener
        .set_nonblocking(true)
        .expect("net driver: listener nonblocking");
    std::thread::Builder::new()
        .name("uq-net-listener".into())
        .spawn(move || loop {
            if sh.shutdown.load(Ordering::Acquire) {
                break;
            }
            match listener.accept() {
                Ok((mut stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_nodelay(true);
                    // bad or missing handshake: hang up, keep listening
                    if read_hello(&mut stream, &sh.tracer).is_some() {
                        sh.tracer.incr(Counter::NetReconnects);
                        sh.joiners.lock().push_back(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => break,
            }
        })
        .expect("net driver: listener thread spawn failed")
}

/// Decide this barrier's membership changes; returns the retiring ranks
/// (the root sends each a [`Msg::Retire`] before it starts calling
/// `rehost`).
fn plan_barrier(sh: &DriverShared, first_ctrl: usize) -> Vec<usize> {
    let barrier = sh.barrier.fetch_add(1, Ordering::SeqCst) + 1;
    let mut retiring = Vec::new();
    let mut leaves = Vec::new();
    for (i, p) in sh.peers.lock().iter().enumerate() {
        if !p.gone.load(Ordering::Acquire) && p.leave_at_barrier == Some(barrier) {
            retiring.extend_from_slice(&p.ranks);
            leaves.push(i);
        }
    }
    // admit at most one joiner per barrier, donating half the
    // driver-hosted controllers (universe size never changes: a joiner
    // adopts existing ranks)
    let hosted: Vec<usize> = {
        let routes = sh.routes.lock();
        (first_ctrl..routes.len())
            .filter(|&r| routes[r].is_none() && !retiring.contains(&r))
            .collect()
    };
    let joiner = (!hosted.is_empty()).then(|| sh.joiners.lock().pop_front());
    let donation = joiner.flatten().map(|stream| {
        let ranks = hosted[..hosted.len().div_ceil(2)].to_vec();
        retiring.extend_from_slice(&ranks);
        Donation {
            stream,
            running: ranks.clone(),
            ranks,
            leftovers: Vec::new(),
        }
    });
    *sh.pending.lock() = Some(PlanOut {
        since: Instant::now(),
        leaves,
        donation,
        joining: None,
    });
    retiring
}

/// Carry out as much of this barrier's planned membership changes as can
/// be done without waiting — re-host a departed worker's ranks here once
/// its `Bye` is in, hand donated ranks to the admitted joiner once they
/// have retired here — and say whether all of it is done. The root calls
/// this once per poll while every chain is paused, so route rewrites
/// cannot race with traffic toward the moving ranks, and never blocks in
/// it: the ranks it waits for may share its pool worker.
fn rehost_step(sh: &Arc<DriverShared>, config: &ParallelConfig, snap: &RunSnapshot) -> bool {
    let mut pending = sh.pending.lock();
    let Some(plan) = pending.as_mut() else {
        return true;
    };
    let ckpt_of = |rank: usize| {
        let ckpt = snap.chains.iter().find(|c| c.rank == rank);
        ckpt.cloned()
            .expect("net driver: snapshot misses a migrating rank")
    };
    plan.leaves.retain(|&i| {
        let peer = Arc::clone(&sh.peers.lock()[i]);
        let Some(mut leftovers) = peer.bye.lock().take() else {
            return true;
        };
        for &rank in &peer.ranks {
            let unread = leftovers.extract_if(.., |(to, ..)| *to == rank);
            let unread = unread.map(|(_, from, msg)| Envelope { from, msg });
            sh.resumes.lock().insert(rank, ckpt_of(rank));
            sh.routes.lock()[rank] = None;
            sh.pool.adopt(rank, unread.collect());
            sh.count_migration();
        }
        debug_assert!(
            leftovers.is_empty(),
            "leftovers addressed outside the departing worker's ranks"
        );
        false
    });
    if let Some(d) = plan.donation.as_mut() {
        d.running.retain(|&rank| match sh.pool.hand_off(rank) {
            Some(unread) => {
                let unread = unread.into_iter();
                d.leftovers
                    .extend(unread.map(|env| (rank, env.from, env.msg)));
                false
            }
            None => true,
        });
    }
    if let Some(mut d) = plan.donation.take_if(|d| d.running.is_empty()) {
        let assign = Frame::Assign {
            n_ranks: config.n_ranks(),
            ranks: d.ranks.clone(),
            config: config.clone(),
            ckpts: d.ranks.iter().map(|&rank| ckpt_of(rank)).collect(),
            leftovers: d.leftovers,
        };
        write_frame(&mut d.stream, &assign, &sh.tracer)
            .expect("net driver: Assign to joiner failed");
        let peer = PeerLink::new(&d.stream, d.ranks, None);
        let idx = {
            let mut peers = sh.peers.lock();
            peers.push(Arc::clone(&peer));
            peers.len() - 1
        };
        // anything routed from here on follows the `Assign` on the wire
        for &rank in &peer.ranks {
            sh.routes.lock()[rank] = Some(idx);
            sh.count_migration();
        }
        let downlink = spawn_downlink(Arc::clone(sh), Arc::clone(&peer), d.stream);
        sh.downlinks.lock().push(downlink);
        plan.joining = Some(peer);
    }
    plan.joining
        .take_if(|peer| peer.ready.load(Ordering::Acquire));
    let done = plan.leaves.is_empty() && plan.donation.is_none() && plan.joining.is_none();
    if done {
        *pending = None;
    } else {
        assert!(
            plan.since.elapsed() < REHOST_DEADLINE,
            "net driver: a departing worker never sent Bye, or a joiner never became Ready"
        );
        // the root is re-polled at once: let the thread we wait for run
        std::thread::yield_now();
    }
    done
}

/// Options of the [`NetDriver::run`] alias: its [`Placement::Net`]'s worker
/// count, its [`ParallelCheckpoint`]'s `every` / `store` / `config_hash`.
pub struct NetDriverOptions {
    /// Worker processes to wait for at rendezvous.
    pub workers: usize,
    /// Checkpoint every `every` top-level corrections (0 disables; the
    /// elastic protocol needs barriers, so joins/leaves require this
    /// and a `store`).
    pub every: usize,
    /// Snapshot store (also the recovery point on fail-stop).
    pub store: Option<Arc<RunStore>>,
    /// Configuration hash stamped into snapshots.
    pub config_hash: u64,
}

/// What [`NetDriver::run`] returns: three fields of its run's report.
pub struct NetReport {
    pub report: ParallelReport,
    /// Rank migrations executed (re-hosted + donated).
    pub migrations: u64,
    /// Sends dropped across the whole driver process (out-of-range,
    /// exited or departed destinations).
    pub dropped_sends: usize,
}

/// The driver endpoint: binds the rendezvous address; a
/// [`Placement::Net`] then assembles one logical universe from this
/// process plus the worker processes that dial it.
pub struct NetDriver {
    listener: TcpListener,
}

impl NetDriver {
    pub fn bind(addr: &str) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (pass to workers; `bind("127.0.0.1:0")` picks
    /// a free port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("net driver: no local addr")
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
        let config = RuntimeConfig::unsharded(config.clone(), &runtime);
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
        let done = done.expect("a live run");
        NetReport {
            report: done.report,
            migrations: done.migrations.expect("a net placement counts them"),
            dropped_sends: done.runtime.dropped_sends,
        }
    }

    /// The net arm of [`Run::on`]: `run`'s fixed ranks (and any
    /// controller remainder) on `runtime`, its controllers in `workers`
    /// blocks on the peers that dial in, each resuming from its block of
    /// `run.resume`. Returns the driver-hosted ranks' outputs, the pool's
    /// counters plus the transport's lost sends, and the migrations.
    pub(crate) fn drive(
        self,
        runtime: &Runtime,
        run: &Run<'_>,
        workers: usize,
    ) -> (Vec<RoleOut>, RuntimeStats, u64) {
        let (factory, rt_config, tracer) = (run.factory, run.config, run.tracer);
        assert_eq!(
            rt_config.collector_shards, 1,
            "net placement: workers rebuild the rank layout from the ParallelConfig on the \
             wire, which has one collector per level — a sharded run would mis-address ranks"
        );
        let config = &rt_config.base;
        let n_ranks = rt_config.n_ranks();
        let first_ctrl = rt_config.first_controller_rank();
        let n_ctrl = rt_config.n_controllers();
        assert!(workers >= 1, "net driver: need at least one worker");
        assert!(
            workers <= n_ctrl,
            "net driver: more workers than controller ranks"
        );

        // rendezvous: block until every initial worker said Hello
        let mut arrivals: Vec<(TcpStream, Option<u64>)> = Vec::new();
        let mut early_joiners: VecDeque<TcpStream> = VecDeque::new();
        while arrivals.len() < workers {
            let (mut stream, _) = self.listener.accept().expect("net driver: accept failed");
            let _ = stream.set_nodelay(true);
            match read_hello(&mut stream, tracer) {
                Some((true, _)) => early_joiners.push_back(stream),
                Some((false, leave_at_barrier)) => arrivals.push((stream, leave_at_barrier)),
                // bad or missing handshake: hang up, keep accepting
                None => {}
            }
        }

        // contiguous rank blocks per worker; remainder stays here
        let per = n_ctrl / workers;
        let routes: Vec<Option<usize>> = (0..n_ranks)
            .map(|r| Some(r.checked_sub(first_ctrl)? / per).filter(|&i| i < workers))
            .collect();
        let peers: Vec<Arc<PeerLink>> = arrivals
            .iter()
            .enumerate()
            .map(|(i, (stream, leave))| {
                let block = first_ctrl + i * per..first_ctrl + (i + 1) * per;
                PeerLink::new(stream, block.collect(), *leave)
            })
            .collect();

        // every send to a rank hosted elsewhere goes through the one
        // router channel (`None` ends the router)
        let (router_tx, router_rx) = unbounded::<Option<(usize, Envelope<Msg>)>>();
        let dropped = Arc::new(AtomicUsize::new(0));
        let relay = {
            let (tx, dropped) = (router_tx.clone(), Arc::clone(&dropped));
            move |to, env| {
                if tx.send(Some((to, env))).is_err() {
                    dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        };
        let hosted = (0..n_ranks).filter(|&r| routes[r].is_none());
        let sh = Arc::new(DriverShared {
            pool: runtime.host(n_ranks, hosted, Box::new(relay), tracer.steal_probe()),
            routes: Mutex::new(routes),
            peers: Mutex::new(peers.clone()),
            joiners: Mutex::new(early_joiners),
            resumes: Mutex::new(HashMap::new()),
            downlinks: Mutex::new(Vec::new()),
            pending: Mutex::new(None),
            barrier: AtomicU64::new(0),
            dropped,
            shutdown: AtomicBool::new(false),
            tracer: tracer.clone(),
            migrations: AtomicU64::new(0),
        });

        // Assign each worker its block, resumed from the block's share
        // of the cut; Ready gates routing
        for (i, (peer, (stream, _))) in peers.iter().zip(&mut arrivals).enumerate() {
            let block = i * per..(i + 1) * per;
            let assign = Frame::Assign {
                n_ranks,
                ranks: peer.ranks.clone(),
                config: config.clone(),
                ckpts: run
                    .resume
                    .map_or(vec![], |snap| snap.chains[block].to_vec()),
                leftovers: vec![],
            };
            write_frame(&mut *peer.writer.lock(), &assign, tracer)
                .expect("net driver: Assign failed");
            match read_frame(stream, tracer) {
                Ok(Frame::Ready) => {}
                other => panic!("net driver: worker never became Ready: {other:?}"),
            }
        }
        for (peer, (stream, _)) in peers.into_iter().zip(arrivals) {
            let downlink = spawn_downlink(Arc::clone(&sh), peer, stream);
            sh.downlinks.lock().push(downlink);
        }
        let listener_handle = spawn_listener(Arc::clone(&sh), self.listener);
        let router_handle = {
            let sh = Arc::clone(&sh);
            std::thread::Builder::new()
                .name("uq-net-router".into())
                .spawn(move || {
                    for (to, env) in router_rx.into_iter().map_while(|relayed| relayed) {
                        deliver(&sh, to, env);
                    }
                })
                .expect("net driver: router thread spawn failed")
        };

        // the role machines of the ranks hosted here, the root with the
        // membership hooks; a rank re-hosted from a departed worker
        // continues from the barrier's cut
        let plan = |_: &RunSnapshot| plan_barrier(&sh, first_ctrl);
        let rehost = |snap: &RunSnapshot, _: &[usize]| rehost_step(&sh, config, snap);
        let elastic = ElasticOps {
            plan: &plan,
            rehost: &rehost,
        };
        let run = Run {
            elastic: run.checkpoint.map(|_| &elastic),
            ..*run
        };
        let (outs, mut stats) =
            runtime.drive(&sh.pool, |rank, _| match sh.resumes.lock().remove(&rank) {
                Some(resume) => {
                    let resume = Some(&resume);
                    Box::new(ControllerRank::new(
                        factory, rt_config, tracer, rank, resume,
                    ))
                }
                None => run.machine(rank),
            });

        // teardown of the wire machinery
        sh.shutdown.store(true, Ordering::Release);
        for mut s in sh.joiners.lock().drain(..) {
            // never-admitted joiners: tell them the run is over
            let _ = write_frame(&mut s, &Frame::Bye { leftovers: vec![] }, tracer);
            let _ = s.shutdown(Shutdown::Both);
        }
        listener_handle
            .join()
            .expect("net driver: listener panicked");
        let downlinks: Vec<_> = sh.downlinks.lock().drain(..).collect();
        for h in downlinks {
            h.join().expect("net driver: downlink panicked");
        }
        router_tx
            .send(None)
            .expect("net driver: router ended early");
        router_handle.join().expect("net driver: router panicked");
        stats.dropped_sends += sh.dropped.load(Ordering::Relaxed);
        let outs = outs.into_iter().map(|(_, out)| out).collect();
        (outs, stats, sh.migrations.load(Ordering::Relaxed))
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
    /// (1-based); the driver re-hosts this worker's ranks there.
    pub leave_at_barrier: Option<u64>,
}

/// What a worker did.
pub struct NetWorkerReport {
    /// Controller ranks this process hosted (empty if the run ended
    /// before a joiner was admitted).
    pub ranks: Vec<usize>,
    /// Ranks left via migration rather than normal run end.
    pub retired: bool,
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

/// The worker end of a [`Placement::Net`] — not a run of its own: the
/// driver's `Assign` says which controller ranks of whose run to host on
/// `runtime`, to completion or planned departure. Retries the connect for
/// up to 30 s so workers can start before the driver.
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
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            join: opts.join,
            leave_at_barrier: opts.leave_at_barrier,
        },
        tracer,
    )
    .expect("net worker: handshake failed");
    let (n_ranks, ranks, config, ckpts, leftovers) = match read_frame(&mut stream, tracer) {
        Ok(Frame::Assign {
            n_ranks,
            ranks,
            config,
            ckpts,
            leftovers,
        }) => (n_ranks, ranks, config, ckpts, leftovers),
        // the run ended before this joiner was admitted
        Ok(Frame::Bye { .. }) => {
            return NetWorkerReport {
                ranks: vec![],
                retired: false,
            }
        }
        other => panic!("net worker: bad handshake reply: {other:?}"),
    };

    // every send to a rank not hosted here shares the one uplink channel:
    // the socket then carries each local sender's full program order
    let (uplink_tx, uplink_rx) = unbounded::<Frame>();
    let relay = {
        let tx = uplink_tx.clone();
        move |to, env: Envelope<Msg>| {
            let (from, msg) = (env.from, env.msg);
            // the uplink outlives every rank: it ends on the `Bye` below
            let _ = tx.send(Frame::Data { to, from, msg });
        }
    };
    let hosted = ranks.iter().copied();
    let pool = runtime.host(n_ranks, hosted, Box::new(relay), tracer.steal_probe());
    // pre-load migrated leftovers before any rank runs
    for (to, from, msg) in leftovers {
        pool.deliver(to, Envelope { from, msg });
    }
    write_frame(&mut stream, &Frame::Ready, tracer).expect("net worker: Ready failed");

    let uplink = {
        let mut writer = stream.try_clone().expect("net worker: stream clone failed");
        let tracer = tracer.clone();
        std::thread::Builder::new()
            .name("uq-net-uplink".into())
            .spawn(move || {
                for frame in uplink_rx {
                    write_frame(&mut writer, &frame, &tracer)
                        .unwrap_or_else(|e| panic!("net worker: uplink write failed: {e}"));
                    if matches!(frame, Frame::Bye { .. }) {
                        break;
                    }
                }
            })
            .expect("net worker: uplink thread spawn failed")
    };
    let shutdown = Arc::new(AtomicBool::new(false));
    let downlink = {
        let mut reader = stream.try_clone().expect("net worker: stream clone failed");
        let tracer = tracer.clone();
        let (shutdown, pool) = (Arc::clone(&shutdown), Arc::clone(&pool));
        std::thread::Builder::new()
            .name("uq-net-downlink".into())
            .spawn(move || loop {
                match read_frame(&mut reader, &tracer) {
                    Ok(Frame::Data { to, from, msg }) => pool.deliver(to, Envelope { from, msg }),
                    Ok(f) => panic!("net worker: unexpected frame: {f:?}"),
                    Err(e) => {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        panic!("net worker: connection to driver lost: {e}");
                    }
                }
            })
            .expect("net worker: downlink thread spawn failed")
    };

    let config = RuntimeConfig::unsharded(config, runtime);
    let (outs, _) = runtime.drive(&pool, |rank, _| {
        let resume = ckpts.iter().find(|c| c.rank == rank);
        Box::new(ControllerRank::new(factory, &config, tracer, rank, resume)) as Machine<'_>
    });
    // a retired rank's unread messages travel with it
    let (mut retired, mut leftovers) = (false, Vec::new());
    for (rank, out) in outs {
        if matches!(out, RoleOut::Retired) {
            retired = true;
            let unread = pool.hand_off(rank).expect("an exited rank");
            leftovers.extend(unread.into_iter().map(|env| (rank, env.from, env.msg)));
        }
    }
    // the ranks are gone, so the `Bye` is the last frame of the uplink; the
    // driver may hang up on reading it, so end of file now ends the run
    shutdown.store(true, Ordering::Release);
    uplink_tx
        .send(Frame::Bye { leftovers })
        .expect("net worker: uplink ended early");
    uplink.join().expect("net worker: uplink panicked");
    let _ = stream.shutdown(Shutdown::Both);
    downlink.join().expect("net worker: downlink panicked");
    NetWorkerReport { ranks, retired }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::policy::GaussianHierarchy;

    /// Driver, a worker that leaves at barrier 1 and a joiner, each on a
    /// **one-worker** pool — the 1-core box, where a `rehost` that waited
    /// inside the root's poll would wait for ranks queued behind the root
    /// on the very worker it holds. The rank the leaver gives up is
    /// re-hosted on the driver, then donated to the joiner.
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

    fn roundtrip(frame: &Frame) -> Frame {
        decode_frame(&encode_frame(frame)).expect("roundtrip failed")
    }

    #[test]
    fn frame_roundtrips() {
        match roundtrip(&Frame::Hello {
            version: PROTOCOL_VERSION,
            join: true,
            leave_at_barrier: Some(3),
        }) {
            Frame::Hello {
                version,
                join,
                leave_at_barrier,
            } => {
                assert_eq!(version, PROTOCOL_VERSION);
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
