//! Multi-process TCP transport behind the [`crate::comm`] rank API.
//!
//! One **driver** process hosts the fixed ranks (root, phonebook,
//! collectors) plus any controller remainder; each **worker** process
//! hosts a contiguous block of controller ranks. Every process drives
//! the [`crate::roles`] machines of its ranks with one thread each, as
//! [`crate::scheduler::run_parallel`] does in one process — the
//! transport only replaces channel delivery with length-prefixed,
//! checksummed frames over per-peer sockets, so a net run in the
//! deterministic regime is bit-for-bit digest-identical to the
//! in-process runs (pinned by `tests/net_conformance.rs`).
//!
//! Ordering is the load-bearing invariant: the role protocol relies on
//! per-destination FIFO *and* on one cross-destination program-order
//! guarantee (a server's `ServeDone` to the phonebook is sent before the
//! requester's `CoarseSample`, so a session write-back always lands
//! before the next request against it). The transport preserves full
//! sender program order across destinations by funnelling every remote
//! send through a single relay channel per process
//! (`Outbox::Relay`) into a single socket — TCP then
//! keeps that order, and the receiving side routes frames to rank
//! channels in arrival order from a single reader thread.
//!
//! Elastic membership rides the PR-6 checkpoint barrier: at a completed
//! barrier every chain is paused at a clean boundary, the ledger is
//! drained and nothing is in flight toward controllers, so a departing
//! worker's ranks (or ranks donated to a joiner) migrate as plain data —
//! the just-persisted [`RunSnapshot`] carries their chain state, and any
//! messages still queued in their channels travel alongside as
//! `leftovers`. See `DESIGN.md` §9.
//!
//! Failure semantics are fail-stop: a peer socket dying outside a
//! planned departure aborts the run (the snapshot store is the recovery
//! path), it is never silently dropped.

use crate::comm::{Envelope, Outbox, RankCtx};
use crate::obs::{Counter, Tracer};
use crate::roles::{
    drive_controller, CollectorRank, ElasticOps, PhonebookRank, PhonebookStats, RootRank, Run,
    RuntimeConfig,
};
use crate::scheduler::{
    CollectorData, Msg, ParallelCheckpoint, ParallelConfig, ParallelLevelReport, ParallelReport,
    PHONEBOOK, ROOT,
};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uq_mlmcmc::ledger::PairingMode;
use uq_mlmcmc::store::{
    fnv1a, Backend, ChainCkpt, Codec, Dec, Enc, RunSnapshot, RunStore, StoreError,
};
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
/// channel when it exits, re-delivered verbatim to its next host.
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
    /// to pre-load into their channels.
    Assign {
        n_ranks: usize,
        ranks: Vec<usize>,
        config: ParallelConfig,
        ckpts: Vec<ChainCkpt>,
        leftovers: Vec<Leftover>,
    },
    /// Worker → driver: ranks spawned, channels wired — safe to route.
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

/// Where messages for a given rank go right now. Rewired at checkpoint
/// barriers when ranks migrate; every remote send consults the live
/// table through the router, so rewiring is a single slot write.
#[derive(Clone)]
enum Route {
    Local(Sender<Envelope<Msg>>),
    /// Index into [`DriverShared::peers`].
    Peer(usize),
    /// No host yet (startup only, before the rank's thread spawns).
    Unwired,
}

/// One worker connection on the driver side.
struct PeerLink {
    /// Write half, serialized: the router and the rehost handshake both
    /// write frames, and interleaved bytes would corrupt the stream.
    writer: Mutex<TcpStream>,
    ranks: Vec<usize>,
    leave_at_barrier: Option<u64>,
    /// Set by the downlink thread when the worker's final [`Frame::Bye`]
    /// arrives; `rehost` polls it to collect a departing worker's
    /// leftover messages.
    bye: Mutex<Option<Vec<Leftover>>>,
    gone: AtomicBool,
}

/// Membership changes decided by `plan`, executed by `rehost` (both run
/// on the root thread inside the same barrier, so the handoff is a
/// plain slot).
#[derive(Default)]
struct PlanOut {
    /// Peer indices departing at this barrier.
    leaves: Vec<usize>,
    /// Admitted joiners with the driver-hosted ranks donated to each.
    donations: Vec<(TcpStream, Vec<usize>)>,
}

struct DriverShared {
    routes: Mutex<Vec<Route>>,
    peers: Mutex<Vec<Arc<PeerLink>>>,
    /// Workers that said `Hello { join: true }`, awaiting admission.
    joiners: Mutex<VecDeque<TcpStream>>,
    /// Join handles of driver-hosted controller threads, by rank —
    /// removable individually so a donated rank can be reaped mid-run.
    handles: Mutex<HashMap<usize, JoinHandle<Option<RankCtx<Msg>>>>>,
    downlinks: Mutex<Vec<JoinHandle<()>>>,
    pending: Mutex<PlanOut>,
    /// Completed checkpoint barriers (identifies departure points).
    barrier: AtomicU64,
    dropped: Arc<AtomicUsize>,
    shutdown: AtomicBool,
    tracer: Tracer,
    migrations: AtomicU64,
}

/// Everything a controller thread needs, bundled so spawn closures are
/// `'static`.
struct DriverCtx {
    sh: Arc<DriverShared>,
    factory: Arc<dyn LevelFactory>,
    config: RuntimeConfig,
    /// Outbox template for every rank hosted here: fixed ranks
    /// short-circuit through channels, all controller ranks relay
    /// through the router (so migrations only touch the route table).
    template: Vec<Outbox<Msg>>,
    n_ranks: usize,
    first_ctrl: usize,
}

/// Deliver one message to wherever its destination rank lives.
fn deliver(sh: &DriverShared, to: usize, env: Envelope<Msg>) {
    let route = sh.routes.lock()[to].clone();
    match route {
        Route::Local(tx) => {
            if tx.send(env).is_err() {
                sh.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        Route::Peer(i) => {
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
        Route::Unwired => panic!("net driver: message routed to unwired rank {to}"),
    }
}

fn spawn_controller_thread(
    dc: &Arc<DriverCtx>,
    rank: usize,
    rx: crossbeam::channel::Receiver<Envelope<Msg>>,
    resume: Option<ChainCkpt>,
) -> JoinHandle<Option<RankCtx<Msg>>> {
    let dc = Arc::clone(dc);
    std::thread::Builder::new()
        .name(format!("uq-net-ctrl-{rank}"))
        .spawn(move || {
            let ctx = RankCtx::from_parts(
                rank,
                dc.n_ranks,
                rx,
                dc.template.clone(),
                Arc::clone(&dc.sh.dropped),
            );
            drive_controller(
                ctx,
                &*dc.factory,
                &dc.config,
                &dc.sh.tracer,
                resume.as_ref(),
            )
        })
        .expect("net driver: controller thread spawn failed")
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
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_nodelay(true);
                    let mut s = stream;
                    match read_frame(&mut s, &sh.tracer) {
                        Ok(Frame::Hello { .. }) => {
                            sh.tracer.incr(Counter::NetReconnects);
                            sh.joiners.lock().push_back(s);
                        }
                        // bad handshake: hang up, keep listening
                        _ => drop(s),
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
/// (the root sends each a [`Msg::Retire`] before calling `rehost`).
fn plan_barrier(dc: &DriverCtx) -> Vec<usize> {
    let sh = &dc.sh;
    let barrier = sh.barrier.fetch_add(1, Ordering::SeqCst) + 1;
    let mut retiring = Vec::new();
    let mut out = PlanOut::default();
    {
        let peers = sh.peers.lock();
        for (i, p) in peers.iter().enumerate() {
            if !p.gone.load(Ordering::Acquire) && p.leave_at_barrier == Some(barrier) {
                retiring.extend_from_slice(&p.ranks);
                out.leaves.push(i);
            }
        }
    }
    {
        // admit at most one joiner per barrier, donating half the
        // driver-hosted controllers (universe size never changes: a
        // joiner adopts existing ranks)
        let mut joiners = sh.joiners.lock();
        if !joiners.is_empty() {
            let hosted: Vec<usize> = {
                let routes = sh.routes.lock();
                (dc.first_ctrl..dc.n_ranks)
                    .filter(|&r| matches!(routes[r], Route::Local(_)) && !retiring.contains(&r))
                    .collect()
            };
            if !hosted.is_empty() {
                let stream = joiners.pop_front().unwrap();
                let donate = hosted[..hosted.len().div_ceil(2)].to_vec();
                retiring.extend_from_slice(&donate);
                out.donations.push((stream, donate));
            }
        }
    }
    *sh.pending.lock() = out;
    retiring
}

/// Execute the membership changes planned at this barrier: re-host a
/// departing worker's ranks on the driver, hand donated ranks to an
/// admitted joiner. Runs on the root thread while every chain is paused,
/// so route rewrites cannot race with traffic toward the moving ranks.
fn rehost_barrier(dc: &Arc<DriverCtx>, snap: &RunSnapshot) {
    let sh = &dc.sh;
    let out = std::mem::take(&mut *sh.pending.lock());
    for i in out.leaves {
        let peer = Arc::clone(&sh.peers.lock()[i]);
        let deadline = Instant::now() + Duration::from_secs(30);
        let leftovers = loop {
            if let Some(l) = peer.bye.lock().take() {
                break l;
            }
            assert!(
                Instant::now() < deadline,
                "net driver: departing worker never sent Bye"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        let mut per_rank: HashMap<usize, Vec<Envelope<Msg>>> = HashMap::new();
        for (to, from, msg) in leftovers {
            per_rank.entry(to).or_default().push(Envelope { from, msg });
        }
        for &rank in &peer.ranks {
            let (tx, rx) = unbounded();
            for env in per_rank.remove(&rank).unwrap_or_default() {
                let _ = tx.send(env);
            }
            sh.routes.lock()[rank] = Route::Local(tx);
            let resume = snap.chains.iter().find(|c| c.rank == rank).cloned();
            let handle = spawn_controller_thread(dc, rank, rx, resume);
            sh.handles.lock().insert(rank, handle);
            sh.migrations.fetch_add(1, Ordering::Relaxed);
            sh.tracer.incr(Counter::NetMigrations);
        }
        debug_assert!(
            per_rank.is_empty(),
            "leftovers addressed outside the departing worker's ranks"
        );
    }
    for (stream, ranks) in out.donations {
        let mut ckpts = Vec::new();
        let mut leftovers: Vec<Leftover> = Vec::new();
        for &rank in &ranks {
            let handle = sh
                .handles
                .lock()
                .remove(&rank)
                .expect("net driver: donated rank has no thread");
            let mut ctx = handle
                .join()
                .expect("net driver: donated controller panicked")
                .expect("net driver: donated controller did not retire");
            for env in ctx.drain() {
                leftovers.push((rank, env.from, env.msg));
            }
            ckpts.push(
                snap.chains
                    .iter()
                    .find(|c| c.rank == rank)
                    .cloned()
                    .expect("net driver: snapshot missing donated rank"),
            );
        }
        let mut s = stream;
        write_frame(
            &mut s,
            &Frame::Assign {
                n_ranks: dc.n_ranks,
                ranks: ranks.clone(),
                config: dc.config.base.clone(),
                ckpts,
                leftovers,
            },
            &sh.tracer,
        )
        .expect("net driver: Assign to joiner failed");
        match read_frame(&mut s, &sh.tracer) {
            Ok(Frame::Ready) => {}
            other => panic!("net driver: joiner never became Ready: {other:?}"),
        }
        let writer = s.try_clone().expect("net driver: stream clone failed");
        let peer = Arc::new(PeerLink {
            writer: Mutex::new(writer),
            ranks: ranks.clone(),
            leave_at_barrier: None,
            bye: Mutex::new(None),
            gone: AtomicBool::new(false),
        });
        let idx = {
            let mut peers = sh.peers.lock();
            peers.push(Arc::clone(&peer));
            peers.len() - 1
        };
        {
            let mut routes = sh.routes.lock();
            for &rank in &ranks {
                routes[rank] = Route::Peer(idx);
                sh.migrations.fetch_add(1, Ordering::Relaxed);
                sh.tracer.incr(Counter::NetMigrations);
            }
        }
        let downlink = spawn_downlink(Arc::clone(sh), peer, s);
        sh.downlinks.lock().push(downlink);
    }
}

/// Driver-side options for [`NetDriver::run`].
pub struct NetDriverOptions {
    /// Worker processes to wait for at rendezvous (each is assigned a
    /// contiguous block of `n_controllers / workers` controller ranks;
    /// the remainder stays driver-hosted).
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

/// What a driver run produced.
pub struct NetReport {
    pub report: ParallelReport,
    /// Rank migrations executed (re-hosted + donated).
    pub migrations: u64,
    /// Sends dropped across the whole driver process (out-of-range,
    /// exited or departed destinations).
    pub dropped_sends: usize,
}

/// The driver endpoint: binds the rendezvous address, then `run`
/// assembles one logical universe from this process plus `workers`
/// connected worker processes.
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

    /// Host the fixed ranks (and any controller remainder), run the full
    /// schedule and return the assembled report. Blocks until `workers`
    /// workers have connected, then until the run completes.
    pub fn run(
        self,
        factory: Arc<dyn LevelFactory>,
        config: &ParallelConfig,
        opts: &NetDriverOptions,
        tracer: &Tracer,
    ) -> NetReport {
        let rt_config = RuntimeConfig::blocking(config.clone());
        let n_ranks = rt_config.n_ranks();
        let first_ctrl = rt_config.first_controller_rank();
        let n_ctrl = rt_config.n_controllers();
        assert!(opts.workers >= 1, "net driver: need at least one worker");
        assert!(
            opts.workers <= n_ctrl,
            "net driver: more workers than controller ranks"
        );
        if opts.store.is_some() {
            assert!(
                !config.load_balancing,
                "net driver: checkpointing requires load_balancing = false"
            );
        }
        // rendezvous: block until every initial worker said Hello
        let mut arrivals: Vec<(TcpStream, Option<u64>)> = Vec::new();
        let mut early_joiners: VecDeque<TcpStream> = VecDeque::new();
        while arrivals.len() < opts.workers {
            let (stream, _) = self.listener.accept().expect("net driver: accept failed");
            let _ = stream.set_nodelay(true);
            let mut s = stream;
            match read_frame(&mut s, tracer) {
                Ok(Frame::Hello {
                    join,
                    leave_at_barrier,
                    ..
                }) => {
                    if join {
                        early_joiners.push_back(s);
                    } else {
                        arrivals.push((s, leave_at_barrier));
                    }
                }
                other => panic!("net driver: bad worker handshake: {other:?}"),
            }
        }

        // contiguous rank blocks per worker; remainder stays here
        let per = n_ctrl / opts.workers;
        let (router_tx, router_rx) = unbounded::<(usize, Envelope<Msg>)>();
        let mut fixed_txs = Vec::new();
        let mut fixed_rxs: Vec<Option<crossbeam::channel::Receiver<Envelope<Msg>>>> = Vec::new();
        for _ in 0..first_ctrl {
            let (tx, rx) = unbounded();
            fixed_txs.push(tx);
            fixed_rxs.push(Some(rx));
        }
        let template: Vec<Outbox<Msg>> = (0..n_ranks)
            .map(|r| {
                if r < first_ctrl {
                    Outbox::Local(fixed_txs[r].clone())
                } else {
                    Outbox::Relay(router_tx.clone())
                }
            })
            .collect();
        drop(router_tx);
        let mut routes: Vec<Route> = (0..n_ranks)
            .map(|r| {
                if r < first_ctrl {
                    Route::Local(fixed_txs[r].clone())
                } else {
                    Route::Unwired
                }
            })
            .collect();
        let mut peers: Vec<Arc<PeerLink>> = Vec::new();
        let mut worker_streams = Vec::new();
        for (i, (stream, leave)) in arrivals.into_iter().enumerate() {
            let ranks: Vec<usize> = (first_ctrl + i * per..first_ctrl + (i + 1) * per).collect();
            for &r in &ranks {
                routes[r] = Route::Peer(i);
            }
            let writer = stream.try_clone().expect("net driver: stream clone failed");
            peers.push(Arc::new(PeerLink {
                writer: Mutex::new(writer),
                ranks,
                leave_at_barrier: leave,
                bye: Mutex::new(None),
                gone: AtomicBool::new(false),
            }));
            worker_streams.push(stream);
        }

        let dropped = Arc::new(AtomicUsize::new(0));
        let sh = Arc::new(DriverShared {
            routes: Mutex::new(routes),
            peers: Mutex::new(peers),
            joiners: Mutex::new(early_joiners),
            handles: Mutex::new(HashMap::new()),
            downlinks: Mutex::new(Vec::new()),
            pending: Mutex::new(PlanOut::default()),
            barrier: AtomicU64::new(0),
            dropped: Arc::clone(&dropped),
            shutdown: AtomicBool::new(false),
            tracer: tracer.clone(),
            migrations: AtomicU64::new(0),
        });
        let dc = Arc::new(DriverCtx {
            sh: Arc::clone(&sh),
            factory,
            config: rt_config,
            template,
            n_ranks,
            first_ctrl,
        });

        // Assign each worker its block; Ready gates routing
        for (i, s) in worker_streams.iter_mut().enumerate() {
            let peer = Arc::clone(&sh.peers.lock()[i]);
            write_frame(
                &mut *peer.writer.lock(),
                &Frame::Assign {
                    n_ranks,
                    ranks: peer.ranks.clone(),
                    config: config.clone(),
                    ckpts: vec![],
                    leftovers: vec![],
                },
                tracer,
            )
            .expect("net driver: Assign failed");
            match read_frame(s, tracer) {
                Ok(Frame::Ready) => {}
                other => panic!("net driver: worker never became Ready: {other:?}"),
            }
        }
        for (i, s) in worker_streams.into_iter().enumerate() {
            let peer = Arc::clone(&sh.peers.lock()[i]);
            let downlink = spawn_downlink(Arc::clone(&sh), peer, s);
            sh.downlinks.lock().push(downlink);
        }
        let listener_handle = spawn_listener(Arc::clone(&sh), self.listener);
        let router_handle = {
            let sh2 = Arc::clone(&sh);
            std::thread::Builder::new()
                .name("uq-net-router".into())
                .spawn(move || {
                    for (to, env) in router_rx {
                        deliver(&sh2, to, env);
                    }
                })
                .expect("net driver: router thread spawn failed")
        };

        let ckpt_every = if opts.store.is_some() { opts.every } else { 0 };
        let mut fixed_handles = Vec::new();
        for rank in PHONEBOOK..first_ctrl {
            let rx = fixed_rxs[rank].take().unwrap();
            let dc2 = Arc::clone(&dc);
            let level = rank.checked_sub(dc.config.collector_rank(0, 0));
            fixed_handles.push(
                std::thread::Builder::new()
                    .name(level.map_or_else(
                        || "uq-net-phonebook".into(),
                        |level| format!("uq-net-collector-{level}"),
                    ))
                    .spawn(move || {
                        let ctx = RankCtx::from_parts(
                            rank,
                            dc2.n_ranks,
                            rx,
                            dc2.template.clone(),
                            Arc::clone(&dc2.sh.dropped),
                        );
                        let (config, tracer) = (&dc2.config, &dc2.sh.tracer);
                        match level {
                            None => ctx.drive(&mut PhonebookRank::new(config, tracer, None)),
                            Some(level) => ctx
                                .drive(&mut CollectorRank::new(config, level, 0, ckpt_every, None)),
                        };
                    })
                    .expect("net driver: fixed rank thread spawn failed"),
            );
        }
        for rank in first_ctrl + opts.workers * per..n_ranks {
            let (tx, rx) = unbounded();
            sh.routes.lock()[rank] = Route::Local(tx);
            let handle = spawn_controller_thread(&dc, rank, rx, None);
            sh.handles.lock().insert(rank, handle);
        }

        // the root runs on this thread so the elastic hooks can borrow
        let root_ctx = RankCtx::from_parts(
            ROOT,
            n_ranks,
            fixed_rxs[ROOT].take().unwrap(),
            dc.template.clone(),
            Arc::clone(&dropped),
        );
        let store_arc = opts.store.clone();
        let (report, root_ctx) = {
            let ckpt = store_arc.as_ref().map(|s| ParallelCheckpoint {
                store: s,
                config_hash: opts.config_hash,
                every: opts.every,
                on_snapshot: None,
                stop: None,
            });
            let plan = {
                let dc = Arc::clone(&dc);
                move |_snap: &RunSnapshot| plan_barrier(&dc)
            };
            let rehost = {
                let dc = Arc::clone(&dc);
                move |snap: &RunSnapshot, _retiring: &[usize]| rehost_barrier(&dc, snap)
            };
            let elastic = ElasticOps {
                plan: &plan,
                rehost: &rehost,
            };
            let elastic_opt = if ckpt.is_some() { Some(&elastic) } else { None };
            // snapshots carry the thread stamp: a net run's cut is one
            // `run_parallel_ckpt` resumes
            let mut root = RootRank::new(
                &dc.config,
                tracer,
                ckpt.as_ref(),
                Backend::Thread,
                elastic_opt,
            );
            let (out, root_ctx) = root_ctx.drive(&mut root);
            (Run::root_output([out]).0, root_ctx)
        };

        // teardown: reap local ranks, then the wire machinery
        for h in fixed_handles {
            h.join().expect("net driver: fixed rank panicked");
        }
        let handles: Vec<_> = sh.handles.lock().drain().collect();
        for (_, h) in handles {
            let _ = h.join().expect("net driver: controller panicked");
        }
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
        // release the outbox template so the router's channel disconnects
        drop(root_ctx);
        drop(dc);
        router_handle.join().expect("net driver: router panicked");
        NetReport {
            report,
            migrations: sh.migrations.load(Ordering::Relaxed),
            dropped_sends: dropped.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

/// Worker-side options for [`run_net_worker`].
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

/// What a worker run did.
pub struct NetWorkerReport {
    /// Controller ranks this process hosted (empty if the run ended
    /// before a joiner was admitted).
    pub ranks: Vec<usize>,
    /// Ranks left via migration rather than normal run end.
    pub retired: bool,
}

/// Connect to a driver, host the assigned controller ranks and run them
/// to completion (or planned departure). Retries the connect for up to
/// 30 s so workers can start before the driver.
pub fn run_net_worker(
    factory: Arc<dyn LevelFactory>,
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

    let dropped = Arc::new(AtomicUsize::new(0));
    let (uplink_tx, uplink_rx) = unbounded::<(usize, Envelope<Msg>)>();
    let mut local_txs: HashMap<usize, Sender<Envelope<Msg>>> = HashMap::new();
    let mut local_rxs = Vec::new();
    for &rank in &ranks {
        let (tx, rx) = unbounded();
        local_txs.insert(rank, tx);
        local_rxs.push((rank, rx));
    }
    // every remote destination shares the one uplink channel: the socket
    // then carries each local sender's full program order
    let template: Vec<Outbox<Msg>> = (0..n_ranks)
        .map(|r| match local_txs.get(&r) {
            Some(tx) => Outbox::Local(tx.clone()),
            None => Outbox::Relay(uplink_tx.clone()),
        })
        .collect();
    drop(uplink_tx);
    // pre-load migrated leftovers before any rank thread runs
    for (to, from, msg) in leftovers {
        local_txs
            .get(&to)
            .expect("net worker: leftover for a rank not assigned here")
            .send(Envelope { from, msg })
            .unwrap();
    }
    write_frame(&mut stream, &Frame::Ready, tracer).expect("net worker: Ready failed");

    let shutdown = Arc::new(AtomicBool::new(false));
    let uplink = {
        let mut writer = stream.try_clone().expect("net worker: stream clone failed");
        let tracer = tracer.clone();
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("uq-net-uplink".into())
            .spawn(move || {
                for (to, env) in uplink_rx {
                    let frame = Frame::Data {
                        to,
                        from: env.from,
                        msg: env.msg,
                    };
                    if let Err(e) = write_frame(&mut writer, &frame, &tracer) {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        panic!("net worker: uplink write failed: {e}");
                    }
                }
            })
            .expect("net worker: uplink thread spawn failed")
    };
    let downlink = {
        let mut reader = stream.try_clone().expect("net worker: stream clone failed");
        let tracer = tracer.clone();
        let shutdown = Arc::clone(&shutdown);
        let txs = local_txs.clone();
        let dropped = Arc::clone(&dropped);
        std::thread::Builder::new()
            .name("uq-net-downlink".into())
            .spawn(move || loop {
                match read_frame(&mut reader, &tracer) {
                    Ok(Frame::Data { to, from, msg }) => match txs.get(&to) {
                        Some(tx) => {
                            if tx.send(Envelope { from, msg }).is_err() {
                                dropped.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        None => {
                            dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    },
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

    let config = Arc::new(RuntimeConfig::blocking(config));
    let mut rank_threads = Vec::new();
    for (rank, rx) in local_rxs {
        let factory = Arc::clone(&factory);
        let config = Arc::clone(&config);
        let tracer = tracer.clone();
        let template = template.clone();
        let dropped = Arc::clone(&dropped);
        let resume = ckpts.iter().find(|c| c.rank == rank).cloned();
        rank_threads.push(
            std::thread::Builder::new()
                .name(format!("uq-net-ctrl-{rank}"))
                .spawn(move || {
                    let ctx = RankCtx::from_parts(rank, n_ranks, rx, template, dropped);
                    drive_controller(ctx, &*factory, &config, &tracer, resume.as_ref())
                })
                .expect("net worker: rank thread spawn failed"),
        );
    }
    drop(local_txs);

    let mut retired = false;
    let mut leftover_out: Vec<Leftover> = Vec::new();
    for handle in rank_threads {
        if let Some(mut ctx) = handle.join().expect("net worker: rank thread panicked") {
            retired = true;
            let rank = ctx.rank();
            for env in ctx.drain() {
                leftover_out.push((rank, env.from, env.msg));
            }
        }
    }
    // quiesce the uplink (rank threads are gone, so the channel drains
    // and disconnects) before taking the write half back for the Bye
    drop(template);
    uplink.join().expect("net worker: uplink panicked");
    write_frame(
        &mut stream,
        &Frame::Bye {
            leftovers: leftover_out,
        },
        tracer,
    )
    .expect("net worker: Bye failed");
    shutdown.store(true, Ordering::Release);
    let _ = stream.shutdown(Shutdown::Both);
    downlink.join().expect("net worker: downlink panicked");
    NetWorkerReport { ranks, retired }
}

#[cfg(test)]
mod tests {
    use super::*;

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
