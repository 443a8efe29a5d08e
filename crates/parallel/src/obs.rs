//! Unified observability: spans, counters and histograms across the
//! sequential estimator and the role machines on every placement, the
//! ledger/phonebook and the checkpoint barrier.
//!
//! Grown from the skeletal per-rank tracer behind the paper's Fig. 9
//! Gantt chart into a common sink for everything the scheduling stack
//! can measure:
//!
//! * **Spans** ([`SpanKind`]) — what a rank was doing and when:
//!   evaluations, burn-in, serves, work steals, quiesce
//!   pauses and checkpoint assembly, each tagged with rank + level.
//! * **Counters** ([`Counter`]) — monotone totals: serves, write-backs,
//!   steals, dropped sends, barrier acks. Some are incremented live at
//!   the instrumentation site, the rest are merged from the
//!   authoritative subsystem statistics (`RuntimeStats`) at snapshot
//!   time — and *serves == write-backs == `LedgerStats::serves`*
//!   cross-checks three independent accounting paths.
//! * **Histograms** ([`Hist`]) — log₂-bucketed distributions of serve
//!   latency, coarse-request wait, per-evaluation solve time and MG-CG
//!   iteration counts.
//!
//! Two hard design rules, pinned by `tests/obs_conformance.rs`:
//!
//! 1. **Zero-cost when disabled.** A disabled [`Tracer`] holds no sink
//!    at all: every record/incr/observe is a branch on `Option::None`
//!    and [`Tracer::now`] does not even read the clock.
//! 2. **Observation never perturbs the computation.** Recording takes
//!    no RNG draws, sends no messages and wakes no rank; the sink is
//!    sharded by rank so writers do not contend. Tracing-on runs are
//!    bit-for-bit identical to tracing-off runs under every driver.
//!
//! The layers below are observed through what they already take: the
//! sequential estimator through an evaluation hook on the one factory
//! decorator ([`Tracer::observed`]), the pool's work stealing through the
//! observer argument of `Runtime::host`.
//!
//! Exporters: [`chrome_trace`] (trace-event JSON loadable in Perfetto /
//! `chrome://tracing`), [`MetricsSnapshot`] (a JSON metrics document,
//! `scaling_live --metrics-out`) and the compact
//! [`Tracer::progress_line`] polled by `scaling_live --progress`.

use crate::runtime::{RuntimeStats, StealProbe};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use uq_mlmcmc::counting::{EvalHook, Hooked};
use uq_mlmcmc::LevelFactory;

// ---------------------------------------------------------------------
// epoch
// ---------------------------------------------------------------------

/// Monotonic time origin shared by every tracer of one logical run.
///
/// Previously each `Tracer` captured its own `Instant` at construction,
/// so traces from two backends (or from the two halves of a
/// checkpoint/resume pair) were not comparable. The driver now creates
/// one `Epoch` and hands it to every tracer: all timestamps are seconds
/// since that origin, and a resumed run can continue the clock of the
/// interrupted one via [`Epoch::resumed`] — which also keeps live spans
/// alignable with DES virtual time (both start at zero).
#[derive(Clone, Copy, Debug)]
pub struct Epoch {
    origin: Instant,
    offset: f64,
}

impl Epoch {
    /// An epoch starting now (timestamps count up from 0).
    pub fn now() -> Self {
        Self {
            origin: Instant::now(),
            offset: 0.0,
        }
    }

    /// An epoch whose clock continues at `offset` seconds — the wall
    /// time the interrupted run had already accumulated when its last
    /// snapshot was taken.
    pub fn resumed(offset: f64) -> Self {
        Self {
            origin: Instant::now(),
            offset,
        }
    }

    /// Seconds since the (possibly resumed) origin.
    pub fn elapsed(&self) -> f64 {
        self.offset + self.origin.elapsed().as_secs_f64()
    }
}

impl Default for Epoch {
    fn default() -> Self {
        Self::now()
    }
}

// ---------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------

/// What a rank was doing during a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A forward-model evaluation on `level`.
    Eval { level: usize },
    /// Chain burn-in on `level` (Fig. 9's yellow boxes).
    Burnin { level: usize },
    /// Serving a coarse-proposal request.
    Serve { level: usize },
    /// Reassigned to a new level by the load balancer.
    Reassign { from: usize, to: usize },
    /// A runnable rank was stolen from worker `victim`'s run queue.
    Steal { victim: usize },
    /// Paused at a clean boundary for a checkpoint (quiesce interval:
    /// `Checkpoint` received → `CheckpointDone`).
    Quiesce,
    /// Root-side checkpoint barrier: first pause broadcast → snapshot
    /// persisted and `CheckpointDone` broadcast.
    Checkpoint,
}

impl SpanKind {
    /// Short stable name (CSV column, Chrome trace category).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Eval { .. } => "eval",
            SpanKind::Burnin { .. } => "burnin",
            SpanKind::Serve { .. } => "serve",
            SpanKind::Reassign { .. } => "reassign",
            SpanKind::Steal { .. } => "steal",
            SpanKind::Quiesce => "quiesce",
            SpanKind::Checkpoint => "checkpoint",
        }
    }

    /// The level-like payload rendered in the CSV's `level` column
    /// (`-1` where no level applies).
    fn level_col(self) -> isize {
        match self {
            SpanKind::Eval { level } | SpanKind::Burnin { level } | SpanKind::Serve { level } => {
                level as isize
            }
            SpanKind::Reassign { to, .. } => to as isize,
            SpanKind::Steal { victim } => victim as isize,
            SpanKind::Quiesce | SpanKind::Checkpoint => -1,
        }
    }
}

/// One recorded activity span.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    pub rank: usize,
    pub kind: SpanKind,
    /// Seconds since the tracer epoch.
    pub start: f64,
    pub end: f64,
}

// ---------------------------------------------------------------------
// counters
// ---------------------------------------------------------------------

/// Monotone event counters. `Serves`, `WriteBacks` and `BarrierAcks`
/// are incremented live at the instrumentation sites (controller serve
/// loop, phonebook `ServeDone` handler, root checkpoint barrier); the
/// runtime counters are merged from [`RuntimeStats`] when a
/// [`MetricsSnapshot`] is assembled. `SpecLaunched`, `SpecHits` and
/// `SpecMisses` always read 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Ledger serves executed by server chains.
    Serves,
    /// Serve write-backs applied by the phonebook. Must equal `Serves` —
    /// counted at the *other* end of the message.
    WriteBacks,
    /// Checkpoint-barrier acknowledgements received by the root
    /// (controller pauses, collector flush markers, the ledger export).
    BarrierAcks,
    /// Always 0: speculative serves were removed. The three `Spec*`
    /// counters stay because the benchmark names `SpecLaunched` and
    /// `SpecHits`, and so that every v1 counter after them keeps its
    /// position in the metrics JSON. Nothing increments them.
    SpecLaunched,
    /// Always 0 (see `SpecLaunched`).
    SpecHits,
    /// Always 0 (see `SpecLaunched`).
    SpecMisses,
    /// Runnable ranks stolen by idle workers.
    Steals,
    /// Sends to already-exited ranks (observable shutdown loss).
    DroppedSends,
    // --- net transport counters (schema v2; appended at the end so
    // every v1 counter keeps its position and the v1 JSON fields stay
    // byte-stable) ---
    /// Frames written to peer sockets by this process.
    NetFramesOut,
    /// Frames read from peer sockets by this process.
    NetFramesIn,
    /// Bytes written to peer sockets (frame headers included).
    NetBytesOut,
    /// Bytes read from peer sockets (frame headers included).
    NetBytesIn,
    /// Sockets accepted beyond the initial rendezvous (elastic joiners).
    NetReconnects,
    /// Ranks migrated across processes at checkpoint barriers.
    NetMigrations,
    // --- multi-tenant service counters (schema v3; appended so every
    // v1/v2 counter keeps its position and their JSON fields stay
    // byte-stable) ---
    /// Service jobs admitted (`crate::service`).
    JobsAdmitted,
    /// Service jobs turned away at admission (tenant budget exhausted or
    /// DES-predicted time-to-estimate beyond the deadline).
    JobsRejected,
    /// Service jobs preempted at a quiesce barrier (each resume that is
    /// preempted again counts once more).
    JobsPreempted,
}

/// All counters, in `repr` order (the atomic array layout).
pub const COUNTERS: [Counter; 17] = [
    Counter::Serves,
    Counter::WriteBacks,
    Counter::BarrierAcks,
    Counter::SpecLaunched,
    Counter::SpecHits,
    Counter::SpecMisses,
    Counter::Steals,
    Counter::DroppedSends,
    Counter::NetFramesOut,
    Counter::NetFramesIn,
    Counter::NetBytesOut,
    Counter::NetBytesIn,
    Counter::NetReconnects,
    Counter::NetMigrations,
    Counter::JobsAdmitted,
    Counter::JobsRejected,
    Counter::JobsPreempted,
];

impl Counter {
    /// Stable snake_case name used in the metrics JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Serves => "serves",
            Counter::WriteBacks => "write_backs",
            Counter::BarrierAcks => "barrier_acks",
            Counter::SpecLaunched => "spec_launched",
            Counter::SpecHits => "spec_hits",
            Counter::SpecMisses => "spec_misses",
            Counter::Steals => "steals",
            Counter::DroppedSends => "dropped_sends",
            Counter::NetFramesOut => "net_frames_out",
            Counter::NetFramesIn => "net_frames_in",
            Counter::NetBytesOut => "net_bytes_out",
            Counter::NetBytesIn => "net_bytes_in",
            Counter::NetReconnects => "net_reconnects",
            Counter::NetMigrations => "net_migrations",
            Counter::JobsAdmitted => "jobs_admitted",
            Counter::JobsRejected => "jobs_rejected",
            Counter::JobsPreempted => "jobs_preempted",
        }
    }
}

// ---------------------------------------------------------------------
// histograms
// ---------------------------------------------------------------------

/// Histogram identities. Time-valued histograms observe microseconds;
/// `MgCgIters` observes iteration counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Duration of one kernel step of a ledger serve leg (µs); fed
    /// automatically from `Serve` spans, one per step, so a serve
    /// contributes `ρ` observations per leg.
    ServeLatency,
    /// Requester-side wait between issuing a coarse request and the
    /// sample's arrival (µs).
    RequestWait,
    /// Duration of one own-chain step (µs) — fed automatically from
    /// `Eval`/`Burnin` spans; the per-level split lives in
    /// [`MetricsSnapshot::per_level`].
    SolveTime,
    /// MG-CG iterations per cold-start solve (observed by the bench
    /// harness, which is the layer that sees solver internals).
    MgCgIters,
}

/// All histograms, in `repr` order.
pub const HISTS: [Hist; 4] = [
    Hist::ServeLatency,
    Hist::RequestWait,
    Hist::SolveTime,
    Hist::MgCgIters,
];

impl Hist {
    /// Stable snake_case name used in the metrics JSON.
    pub fn name(self) -> &'static str {
        match self {
            Hist::ServeLatency => "serve_latency_us",
            Hist::RequestWait => "request_wait_us",
            Hist::SolveTime => "solve_time_us",
            Hist::MgCgIters => "mg_cg_iters",
        }
    }
}

/// Log₂ bucket count: bucket `i` holds values in `[2^i, 2^(i+1))`
/// (bucket 0 additionally catches everything below 1).
const N_BUCKETS: usize = 40;

fn bucket_of(value: f64) -> usize {
    if value < 1.0 {
        0
    } else {
        (value.log2() as usize).min(N_BUCKETS - 1)
    }
}

/// One histogram's atomic cells: per-bucket counts plus a sum in
/// micro-units (fixed point, so a `fetch_add` suffices).
struct HistCell {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum_milli: AtomicU64,
}

impl HistCell {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_milli: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: f64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_milli
            .fetch_add((value.max(0.0) * 1e3) as u64, Ordering::Relaxed);
    }
}

/// Immutable snapshot of one histogram.
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    pub name: &'static str,
    pub count: u64,
    pub sum: f64,
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))`.
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Upper edge of the bucket containing the `q`-quantile (an upper
    /// bound on the true quantile, exact to within the 2x bucketing).
    pub fn quantile_ceil(&self, q: f64) -> f64 {
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target && c > 0 {
                return 2f64.powi(i as i32 + 1);
            }
        }
        0.0
    }
}

// ---------------------------------------------------------------------
// the tracer
// ---------------------------------------------------------------------

/// Span shards: writers lock `shard = rank % N_SHARDS`, so ranks on
/// different shards never contend (and the common backends put every
/// role on its own shard entirely).
const N_SHARDS: usize = 16;

struct Sink {
    shards: [Mutex<Vec<TraceEvent>>; N_SHARDS],
    counters: [AtomicU64; COUNTERS.len()],
    hists: [HistCell; HISTS.len()],
}

/// Shared, thread-safe observability sink.
///
/// Cloning is cheap (an `Arc` handle). A [`disabled`](Tracer::disabled)
/// tracer holds no sink at all: every operation is a no-op behind one
/// `Option` check and [`now`](Tracer::now) returns 0 without touching
/// the clock — the zero-cost-when-off contract.
#[derive(Clone)]
pub struct Tracer {
    epoch: Epoch,
    sink: Option<Arc<Sink>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Tracer {
    /// An enabled tracer with its own fresh epoch.
    pub fn new() -> Self {
        Self::with_epoch(Epoch::now())
    }

    /// An enabled tracer on a driver-provided epoch — every tracer of
    /// one logical run should share the same one so their timestamps
    /// (and Chrome-trace timelines) are comparable.
    pub fn with_epoch(epoch: Epoch) -> Self {
        Self {
            epoch,
            sink: Some(Arc::new(Sink {
                shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                hists: std::array::from_fn(|_| HistCell::new()),
            })),
        }
    }

    /// A tracer that drops everything (zero overhead in hot paths).
    pub fn disabled() -> Self {
        Self {
            epoch: Epoch::now(),
            sink: None,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// This tracer's epoch (hand it to sibling tracers / exporters).
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Seconds since the epoch — 0 when disabled, so hot paths that
    /// bracket work with `now()`/`record()` pay nothing when off.
    pub fn now(&self) -> f64 {
        if self.sink.is_some() {
            self.epoch.elapsed()
        } else {
            0.0
        }
    }

    /// Record a span with explicit timestamps. `Serve` and
    /// `Eval`/`Burnin` spans additionally feed the serve-latency and
    /// solve-time histograms (no extra instrumentation site needed).
    pub fn record(&self, rank: usize, kind: SpanKind, start: f64, end: f64) {
        let Some(sink) = &self.sink else { return };
        let dur_us = (end - start) * 1e6;
        match kind {
            SpanKind::Serve { .. } => {
                sink.hists[Hist::ServeLatency as usize].observe(dur_us);
            }
            SpanKind::Eval { .. } | SpanKind::Burnin { .. } => {
                sink.hists[Hist::SolveTime as usize].observe(dur_us);
            }
            _ => {}
        }
        sink.shards[rank % N_SHARDS].lock().push(TraceEvent {
            rank,
            kind,
            start,
            end,
        });
    }

    /// Record an instantaneous marker.
    pub fn mark(&self, rank: usize, kind: SpanKind) {
        if self.sink.is_some() {
            let t = self.now();
            self.record(rank, kind, t, t);
        }
    }

    /// Time a closure and record it as a span.
    pub fn span<R>(&self, rank: usize, kind: SpanKind, f: impl FnOnce() -> R) -> R {
        if self.sink.is_none() {
            return f();
        }
        let start = self.now();
        let out = f();
        self.record(rank, kind, start, self.now());
        out
    }

    /// Increment a counter by one.
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Add `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(sink) = &self.sink {
            sink.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current counter value (0 when disabled).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.sink
            .as_ref()
            .map_or(0, |s| s.counters[counter as usize].load(Ordering::Relaxed))
    }

    /// Observe a histogram value (µs for the time histograms).
    pub fn observe(&self, hist: Hist, value: f64) {
        if let Some(sink) = &self.sink {
            sink.hists[hist as usize].observe(value);
        }
    }

    /// Snapshot one histogram.
    pub fn hist(&self, hist: Hist) -> HistSnapshot {
        let (count, sum, buckets) = self
            .sink
            .as_ref()
            .map_or((0, 0.0, vec![0; N_BUCKETS]), |s| {
                let cell = &s.hists[hist as usize];
                (
                    cell.count.load(Ordering::Relaxed),
                    cell.sum_milli.load(Ordering::Relaxed) as f64 / 1e3,
                    cell.buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                )
            });
        HistSnapshot {
            name: hist.name(),
            count,
            sum,
            buckets,
        }
    }

    /// Snapshot of all recorded events, sorted by start time (ties by
    /// rank, so the order is deterministic for identical timestamps).
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(sink) = &self.sink else {
            return Vec::new();
        };
        let mut evts: Vec<TraceEvent> = Vec::new();
        for shard in &sink.shards {
            evts.extend(shard.lock().iter().copied());
        }
        evts.sort_by(|a, b| {
            a.start
                .partial_cmp(&b.start)
                .unwrap()
                .then(a.rank.cmp(&b.rank))
        });
        evts
    }

    /// Total recorded spans (lock-taking; meant for progress polling
    /// and tests, not hot paths).
    pub fn n_events(&self) -> usize {
        self.sink
            .as_ref()
            .map_or(0, |s| s.shards.iter().map(|sh| sh.lock().len()).sum())
    }

    /// Render a CSV (`rank,kind,level,start,end`) for plotting Fig. 9.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("rank,kind,level,start,end\n");
        for e in self.events() {
            out.push_str(&format!(
                "{},{},{},{:.6},{:.6}\n",
                e.rank,
                e.kind.name(),
                e.kind.level_col(),
                e.start,
                e.end
            ));
        }
        out
    }

    /// One compact status line for a live progress ticker (reads
    /// atomics and shard lengths only — never blocks the computation).
    pub fn progress_line(&self) -> String {
        format!(
            "t={:.1}s spans={} serves={} write_backs={} acks={}",
            self.epoch.elapsed(),
            self.n_events(),
            self.counter(Counter::Serves),
            self.counter(Counter::WriteBacks),
            self.counter(Counter::BarrierAcks),
        )
    }
}

// ---------------------------------------------------------------------
// hooks handed to the layers below
// ---------------------------------------------------------------------

/// Each `log_density` as an `Eval` span on `rank`.
struct EvalSpans {
    tracer: Tracer,
    rank: usize,
}

impl EvalHook for EvalSpans {
    fn eval(&self, level: usize, eval: impl FnOnce() -> f64) -> f64 {
        self.tracer.span(self.rank, SpanKind::Eval { level }, eval)
    }
}

impl Tracer {
    /// `inner` instrumented for the **sequential** driver: every
    /// `log_density` of its problems is recorded as an `Eval` span on
    /// `rank` (the sequential estimator is one logical rank). Pure
    /// pass-through otherwise — with a disabled tracer the result is
    /// observably identical to `inner`, and with an enabled one the
    /// computation itself is untouched (bit-parity pinned by
    /// `tests/obs_conformance.rs`).
    pub fn observed<'a>(&self, inner: &'a dyn LevelFactory, rank: usize) -> impl LevelFactory + 'a {
        let tracer = self.clone();
        Hooked::new(inner, EvalSpans { tracer, rank })
    }

    /// The worker pool's steal observer: a `Steal` mark on the stolen
    /// rank's timeline (`None` when disabled). It runs on the thief's idle
    /// path only, after the victim's queue lock is released, so it
    /// cannot perturb scheduling.
    pub(crate) fn steal_probe(&self) -> Option<StealProbe> {
        let tracer = self.is_enabled().then(|| self.clone())?;
        Some(Arc::new(move |rank, victim| {
            tracer.mark(rank, SpanKind::Steal { victim });
        }))
    }
}

// ---------------------------------------------------------------------
// exporters
// ---------------------------------------------------------------------

/// Render one or more tracers as Chrome trace-event JSON, loadable in
/// Perfetto / `chrome://tracing`. Each `(label, tracer)` pair becomes a
/// process (`pid` = index, named by a `process_name` metadata event);
/// ranks map to `tid`s. Spans become `ph:"X"` complete events with
/// microsecond `ts`/`dur`; instantaneous markers become `ph:"i"`
/// instant events. All tracers should share one [`Epoch`] so the
/// processes align on a common timeline.
pub fn chrome_trace(processes: &[(&str, &Tracer)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |s: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&s);
    };
    for (pid, (label, tracer)) in processes.iter().enumerate() {
        push(
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{label}\"}}}}"
            ),
            &mut out,
        );
        for e in tracer.events() {
            let ts = e.start * 1e6;
            let dur = (e.end - e.start) * 1e6;
            let name = e.kind.name();
            let mut args = String::new();
            match e.kind {
                SpanKind::Eval { level }
                | SpanKind::Burnin { level }
                | SpanKind::Serve { level } => {
                    write!(args, "\"level\":{level}").unwrap();
                }
                SpanKind::Reassign { from, to } => {
                    write!(args, "\"from\":{from},\"to\":{to}").unwrap();
                }
                SpanKind::Steal { victim } => write!(args, "\"victim\":{victim}").unwrap(),
                SpanKind::Quiesce | SpanKind::Checkpoint => {}
            }
            let ev = if dur > 0.0 {
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{name}\",\"ph\":\"X\",\"pid\":{pid},\
                     \"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{{args}}}}}",
                    e.rank
                )
            } else {
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\
                     \"pid\":{pid},\"tid\":{},\"ts\":{ts:.3},\"args\":{{{args}}}}}",
                    e.rank
                )
            };
            push(ev, &mut out);
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Per-rank busy time split by activity (seconds).
#[derive(Clone, Debug, Default)]
pub struct RankActivity {
    pub rank: usize,
    pub eval: f64,
    pub burnin: f64,
    pub serve: f64,
    pub quiesce: f64,
}

impl RankActivity {
    /// Productive busy seconds (everything except quiesce pauses).
    pub fn busy(&self) -> f64 {
        self.eval + self.burnin + self.serve
    }
}

/// Per-level busy time split by activity (seconds) plus span counts.
#[derive(Clone, Debug, Default)]
pub struct LevelActivity {
    pub level: usize,
    pub eval: f64,
    pub burnin: f64,
    pub serve: f64,
    pub eval_spans: usize,
}

impl LevelActivity {
    pub fn busy(&self) -> f64 {
        self.eval + self.burnin + self.serve
    }
}

/// A complete metrics export: counters, histograms and the span-derived
/// per-rank / per-level activity tables, rendered to JSON by
/// [`MetricsSnapshot::to_json`].
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    pub label: String,
    /// Wall-clock seconds covered (epoch time of the snapshot).
    pub wall: f64,
    pub counters: Vec<(&'static str, u64)>,
    pub histograms: Vec<HistSnapshot>,
    pub per_rank: Vec<RankActivity>,
    pub per_level: Vec<LevelActivity>,
    /// Per-tenant serve counts `(tenant, serves)` merged from the
    /// multi-tenant service (schema v3; empty outside a service run).
    pub per_tenant: Vec<(u64, u64)>,
}

impl MetricsSnapshot {
    /// Assemble from a tracer: live counters, histograms, and the
    /// per-rank / per-level activity splits derived from spans.
    pub fn capture(label: &str, tracer: &Tracer) -> Self {
        let events = tracer.events();
        let mut per_rank: Vec<RankActivity> = Vec::new();
        let mut per_level: Vec<LevelActivity> = Vec::new();
        let rank_slot = |rank: usize, v: &mut Vec<RankActivity>| -> usize {
            match v.iter().position(|r| r.rank == rank) {
                Some(i) => i,
                None => {
                    v.push(RankActivity {
                        rank,
                        ..RankActivity::default()
                    });
                    v.len() - 1
                }
            }
        };
        for e in &events {
            let dur = e.end - e.start;
            let ri = rank_slot(e.rank, &mut per_rank);
            match e.kind {
                SpanKind::Eval { level } => {
                    per_rank[ri].eval += dur;
                    level_slot(level, &mut per_level).eval += dur;
                    level_slot(level, &mut per_level).eval_spans += 1;
                }
                SpanKind::Burnin { level } => {
                    per_rank[ri].burnin += dur;
                    level_slot(level, &mut per_level).burnin += dur;
                }
                SpanKind::Serve { level } => {
                    per_rank[ri].serve += dur;
                    level_slot(level, &mut per_level).serve += dur;
                }
                SpanKind::Quiesce => per_rank[ri].quiesce += dur,
                SpanKind::Reassign { .. } | SpanKind::Steal { .. } | SpanKind::Checkpoint => {}
            }
        }
        per_rank.sort_by_key(|r| r.rank);
        per_level.sort_by_key(|l| l.level);
        Self {
            label: label.to_string(),
            wall: tracer.now(),
            counters: COUNTERS
                .iter()
                .map(|&c| (c.name(), tracer.counter(c)))
                .collect(),
            histograms: HISTS.iter().map(|&h| tracer.hist(h)).collect(),
            per_rank,
            per_level,
            per_tenant: Vec::new(),
        }
    }

    fn counter_mut(&mut self, c: Counter) -> &mut u64 {
        &mut self
            .counters
            .iter_mut()
            .find(|(n, _)| *n == c.name())
            .expect("capture() populates every counter")
            .1
    }

    /// Named counter value (0 if absent).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == c.name())
            .map_or(0, |&(_, v)| v)
    }

    /// Merge the runtime pool's authoritative counters.
    pub fn merge_runtime(&mut self, stats: &RuntimeStats) -> &mut Self {
        *self.counter_mut(Counter::Steals) += stats.steals as u64;
        *self.counter_mut(Counter::DroppedSends) += stats.dropped_sends as u64;
        self
    }

    /// Merge the service's per-tenant serve accounting (schema v3):
    /// `(tenant, serves)` rows, accumulated into any rows already
    /// present and kept sorted by tenant id.
    pub fn merge_service(&mut self, per_tenant: &[(u64, u64)]) -> &mut Self {
        for &(tenant, serves) in per_tenant {
            match self.per_tenant.iter_mut().find(|(t, _)| *t == tenant) {
                Some(row) => row.1 += serves,
                None => self.per_tenant.push((tenant, serves)),
            }
        }
        self.per_tenant.sort_by_key(|&(t, _)| t);
        self
    }

    /// Render as a standalone JSON document (hand-rolled: the offline
    /// environment has no serde).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        writeln!(out, "  \"label\": \"{}\",", self.label).unwrap();
        writeln!(out, "  \"wall_s\": {:.6},", self.wall).unwrap();
        out.push_str("  \"counters\": {\n");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 == self.counters.len() {
                ""
            } else {
                ","
            };
            writeln!(out, "    \"{name}\": {v}{comma}").unwrap();
        }
        out.push_str("  },\n  \"histograms\": [\n");
        for (i, h) in self.histograms.iter().enumerate() {
            let comma = if i + 1 == self.histograms.len() {
                ""
            } else {
                ","
            };
            // trim trailing empty buckets for readability
            let used = h.buckets.iter().rposition(|&c| c > 0).map_or(0, |p| p + 1);
            writeln!(
                out,
                "    {{ \"name\": \"{}\", \"count\": {}, \"mean\": {:.3}, \
                 \"p50_le\": {:.0}, \"p99_le\": {:.0}, \"log2_buckets\": {:?} }}{comma}",
                h.name,
                h.count,
                h.mean(),
                h.quantile_ceil(0.5),
                h.quantile_ceil(0.99),
                &h.buckets[..used]
            )
            .unwrap();
        }
        out.push_str("  ],\n  \"per_rank\": [\n");
        for (i, r) in self.per_rank.iter().enumerate() {
            let comma = if i + 1 == self.per_rank.len() {
                ""
            } else {
                ","
            };
            // `speculate_s` always reads 0: speculative serves were
            // removed, and the key stays so v1 field positions do not move
            writeln!(
                out,
                "    {{ \"rank\": {}, \"eval_s\": {:.6}, \"burnin_s\": {:.6}, \
                 \"serve_s\": {:.6}, \"speculate_s\": 0.000000, \"quiesce_s\": {:.6}, \
                 \"utilization\": {:.4} }}{comma}",
                r.rank,
                r.eval,
                r.burnin,
                r.serve,
                r.quiesce,
                if self.wall > 0.0 {
                    r.busy() / self.wall
                } else {
                    0.0
                }
            )
            .unwrap();
        }
        out.push_str("  ],\n  \"per_level\": [\n");
        for (i, l) in self.per_level.iter().enumerate() {
            let comma = if i + 1 == self.per_level.len() {
                ""
            } else {
                ","
            };
            writeln!(
                out,
                "    {{ \"level\": {}, \"eval_s\": {:.6}, \"burnin_s\": {:.6}, \
                 \"serve_s\": {:.6}, \"eval_spans\": {} }}{comma}",
                l.level, l.eval, l.burnin, l.serve, l.eval_spans
            )
            .unwrap();
        }
        // schema v3 addition, emitted after every v1/v2 field so their
        // positions stay byte-stable
        out.push_str("  ],\n  \"per_tenant\": [\n");
        for (i, (tenant, serves)) in self.per_tenant.iter().enumerate() {
            let comma = if i + 1 == self.per_tenant.len() {
                ""
            } else {
                ","
            };
            writeln!(
                out,
                "    {{ \"tenant\": {tenant}, \"serves\": {serves} }}{comma}"
            )
            .unwrap();
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn level_slot(level: usize, v: &mut Vec<LevelActivity>) -> &mut LevelActivity {
    let i = match v.iter().position(|l| l.level == level) {
        Some(i) => i,
        None => {
            v.push(LevelActivity {
                level,
                ..LevelActivity::default()
            });
            v.len() - 1
        }
    };
    &mut v[i]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans() {
        let t = Tracer::new();
        t.record(3, SpanKind::Eval { level: 1 }, 0.0, 0.5);
        t.record(2, SpanKind::Burnin { level: 0 }, 0.1, 0.2);
        let evts = t.events();
        assert_eq!(evts.len(), 2);
        assert_eq!(evts[0].rank, 3); // sorted by start
    }

    #[test]
    fn disabled_tracer_drops_everything_and_reads_no_clock() {
        let t = Tracer::disabled();
        t.record(0, SpanKind::Eval { level: 0 }, 0.0, 1.0);
        t.incr(Counter::Serves);
        t.observe(Hist::ServeLatency, 3.0);
        assert!(t.events().is_empty());
        assert_eq!(t.counter(Counter::Serves), 0);
        assert_eq!(t.hist(Hist::ServeLatency).count, 0);
        assert_eq!(t.now(), 0.0);
    }

    #[test]
    fn span_times_closure() {
        let t = Tracer::new();
        let v = t.span(1, SpanKind::Serve { level: 2 }, || 42);
        assert_eq!(v, 42);
        let evts = t.events();
        assert_eq!(evts.len(), 1);
        assert!(evts[0].end >= evts[0].start);
        // serve spans feed the latency histogram automatically
        assert_eq!(t.hist(Hist::ServeLatency).count, 1);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let t = Tracer::new();
        t.record(0, SpanKind::Eval { level: 2 }, 0.0, 1.0);
        t.record(1, SpanKind::Reassign { from: 0, to: 2 }, 1.0, 1.0);
        t.record(2, SpanKind::Quiesce, 1.5, 2.0);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "rank,kind,level,start,end");
        assert!(lines[1].starts_with("0,eval,2,"));
        assert!(lines[3].starts_with("2,quiesce,-1,"));
    }

    #[test]
    fn tracer_is_shareable_across_threads() {
        let t = Tracer::new();
        std::thread::scope(|s| {
            for rank in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    t.mark(rank, SpanKind::Burnin { level: 0 });
                    t.incr(Counter::WriteBacks);
                });
            }
        });
        assert_eq!(t.events().len(), 4);
        assert_eq!(t.counter(Counter::WriteBacks), 4);
    }

    #[test]
    fn resumed_epoch_continues_the_clock() {
        let t = Tracer::with_epoch(Epoch::resumed(100.0));
        assert!(t.now() >= 100.0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let t = Tracer::new();
        for v in [1.0, 2.0, 3.0, 500.0] {
            t.observe(Hist::RequestWait, v);
        }
        let h = t.hist(Hist::RequestWait);
        assert_eq!(h.count, 4);
        assert!((h.mean() - 126.5).abs() < 0.1);
        assert_eq!(h.buckets[0], 1); // 1.0
        assert_eq!(h.buckets[1], 2); // 2.0, 3.0
        assert_eq!(h.buckets[8], 1); // 500.0 in [256, 512)
        assert_eq!(h.quantile_ceil(0.5) as u64, 4);
        assert_eq!(h.quantile_ceil(1.0) as u64, 512);
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let t = Tracer::new();
        t.record(5, SpanKind::Eval { level: 1 }, 0.001, 0.002);
        t.record(1, SpanKind::Reassign { from: 1, to: 0 }, 0.003, 0.003);
        let json = chrome_trace(&[("thread", &t), ("runtime", &Tracer::new())]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"tid\":5"));
        // braces balance (cheap well-formedness check; the CI pipeline
        // additionally runs a real JSON parse over the emitted artifact)
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn snapshot_aggregates_and_merges() {
        let t = Tracer::new();
        t.record(4, SpanKind::Eval { level: 1 }, 0.0, 2.0);
        t.record(4, SpanKind::Serve { level: 0 }, 2.0, 3.0);
        t.record(5, SpanKind::Serve { level: 0 }, 0.0, 0.5);
        t.record(4, SpanKind::Quiesce, 3.0, 3.25);
        t.incr(Counter::Serves);
        t.incr(Counter::Serves);
        t.incr(Counter::WriteBacks);
        let mut snap = MetricsSnapshot::capture("test", &t);
        assert_eq!(snap.counter(Counter::Serves), 2);
        let r4 = snap.per_rank.iter().find(|r| r.rank == 4).unwrap();
        assert!((r4.eval - 2.0).abs() < 1e-12);
        assert!((r4.serve - 1.0).abs() < 1e-12);
        assert!((r4.quiesce - 0.25).abs() < 1e-12);
        let l0 = snap.per_level.iter().find(|l| l.level == 0).unwrap();
        assert!((l0.serve - 1.5).abs() < 1e-12);
        snap.merge_runtime(&RuntimeStats {
            polls: 0,
            wakeups: 0,
            dropped_sends: 3,
            steals: 7,
        });
        assert_eq!(snap.counter(Counter::Steals), 7);
        assert_eq!(snap.counter(Counter::DroppedSends), 3);
        let json = snap.to_json();
        assert!(json.contains("\"serves\": 2"));
        assert!(json.contains("\"per_rank\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn observed_factory_passes_through_and_records() {
        use uq_mcmc::problem::GaussianTarget;
        use uq_mcmc::{Proposal, SamplingProblem};
        struct F;
        impl LevelFactory for F {
            fn n_levels(&self) -> usize {
                1
            }
            fn problem(&self, _: usize) -> Box<dyn SamplingProblem> {
                Box::new(GaussianTarget {
                    mean: vec![0.0],
                    sd: 1.0,
                })
            }
            fn proposal(&self, _: usize) -> Box<dyn Proposal> {
                Box::new(uq_mcmc::GaussianRandomWalk::new(0.5))
            }
            fn subsampling_rate(&self, _: usize) -> usize {
                1
            }
            fn starting_point(&self, _: usize) -> Vec<f64> {
                vec![0.0]
            }
        }
        let t = Tracer::new();
        let f = t.observed(&F, 0);
        let mut p = f.problem(0);
        let mut q = F.problem(0);
        // identical densities, one Eval span per call
        assert_eq!(
            p.log_density(&[0.3]).to_bits(),
            q.log_density(&[0.3]).to_bits()
        );
        assert_eq!(p.qoi(&[0.3]), q.qoi(&[0.3]));
        assert_eq!(t.events().len(), 1);
        assert!(matches!(t.events()[0].kind, SpanKind::Eval { level: 0 }));
    }
}
