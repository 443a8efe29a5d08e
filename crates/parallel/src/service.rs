//! The always-on **multi-tenant UQ service**: a long-lived server
//! multiplexing many concurrent inversion jobs over one shared worker
//! pool.
//!
//! Every layer built so far is exactly the substrate of a shared
//! inference service, and this module only composes them:
//!
//! * **Isolation** — each job runs its own root/phonebook/collector
//!   ranks and its own ledger book (one `Runtime::run` universe per
//!   dispatch), and its RNG streams live in a per-tenant seed namespace
//!   ([`uq_mlmcmc::ledger::tenant_seed`]), so two tenants submitting the
//!   very same config can never share a session substream. In the
//!   deterministic regime a serviced job is bit-for-bit
//!   [`levels_digest`]-identical to the same job run standalone,
//!   regardless of what the other tenants are doing (pinned by
//!   `tests/service_conformance.rs`).
//! * **Fair-share + priority dispatch** — queued jobs are ordered by
//!   `(measured tenant usage + 1) / priority`, where usage is the
//!   tenant's cumulative ledger serves *measured* by the per-job tracer
//!   ([`Counter::Serves`]) — not a pending-queue length. The shared
//!   worker budget is split across concurrently running jobs with
//!   [`uq_mlmcmc::allocate::fair_share_split`] (weights = priorities,
//!   demands = requested worker counts).
//! * **Admission control** — every submit is tested against current
//!   load by simulating the job ([`Placement::Sim`]): its own
//!   configuration runs as the real role machines in virtual time on the
//!   [`StandIn`] target, every evaluation costing the *measured* per-level
//!   `mean_eval_ms` of completed dispatches (EWMA); the makespan is the
//!   job's solo time-to-estimate, and the in-flight job count scales it
//!   to a loaded prediction. A job whose prediction exceeds its
//!   deadline, or whose simulation exceeds a fixed poll budget, is
//!   turned away ([`Counter::JobsRejected`]). The simulation runs
//!   outside the service lock.
//! * **Graceful preemption** — [`Service::preempt`] raises the job's
//!   [`ParallelCheckpoint::stop`] flag; at the next PR-6 quiesce
//!   barrier every one of the job's chains is paused at a clean
//!   boundary with the ledger drained, the snapshot is persisted into
//!   the job's own content-addressed store, and the run tears down
//!   through the normal shutdown chain — no `ServeJob` is ever
//!   stranded. [`Service::resume`] re-queues the job, which continues
//!   from `latest_snapshot` bit-identically (the PR-6 equivalence
//!   machinery is what makes preemption *exact*).
//! * **Remote clients** — submit/status/cancel/preempt/resume travel as
//!   [`ServiceFrame`]s in the PR-9 frame format (length-prefixed,
//!   checksummed, version-stamped) over TCP; a remote submit names a
//!   registered model instead of carrying a factory.
//!
//! See `DESIGN.md` §10 for the admission model and the
//! isolation/preemption-exactness argument.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uq_mlmcmc::allocate::fair_share_split;
use uq_mlmcmc::ledger::tenant_seed;
use uq_mlmcmc::store::{fnv1a, Codec, Dec, Enc, RunStore, StoreError};
use uq_mlmcmc::wire::{frame_decode, frame_encode, frame_read, FrameFormat};
use uq_mlmcmc::LevelFactory;

use crate::net::levels_digest;
use crate::obs::{Counter, Tracer};
use crate::roles::{Placement, Run, RuntimeConfig, SimCost, StandIn};
use crate::runtime::Runtime;
use crate::scheduler::ParallelCheckpoint;

/// Version stamped into every service frame header. Bump on any change
/// to the [`ServiceFrame`] encoding or to the shared frame layout.
pub const SERVICE_PROTOCOL_VERSION: u32 = 4;

/// The service wire: a magic distinct from the net transport's
/// `b"UQNETFR\0"` and the snapshot store's `b"UQSNAP\0\0"`, and a 16 MiB
/// payload cap (a longer claim is a corrupt length field).
const SVC_FORMAT: FrameFormat = FrameFormat {
    magic: b"UQSVCFR\0",
    version: SERVICE_PROTOCOL_VERSION,
    max_len: 1 << 24,
};

/// Bootstrap per-level evaluation time fed to the admission model until
/// a completed dispatch provides a measured value (seconds).
const DEFAULT_EVAL_SECS: f64 = 50e-6;

/// Polls an admission prediction may take before the job is turned away
/// as too large to predict.
const ADMISSION_POLL_BUDGET: usize = 4_000_000;

/// Ranks a job's universe may have (Fig. 11's largest: 1024), checked ahead
/// of the poll budget: a prediction sizes per-rank state before its first poll.
const ADMISSION_RANK_CAP: usize = 4096;

// ---------------------------------------------------------------------
// job model
// ---------------------------------------------------------------------

/// A job identifier, unique within one service instance.
pub type JobId = u64;

/// Lifecycle of a serviced job.
///
/// `Queued → Running → {Completed, Cancelled, Preempted}`, with
/// `Preempted → Queued` on [`Service::resume`]. `Cancelled` and
/// `Completed` are terminal; `Preempted` holds a persisted snapshot and
/// frees the job's worker share until resumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Preempted,
    Completed,
    Cancelled,
}

impl JobState {
    /// Terminal states free the tenant's admission budget.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Cancelled)
    }
}

/// Everything a tenant submits for one inversion job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Tenant identity: seed namespace, budget account and fair-share
    /// usage account.
    pub tenant: u64,
    /// Fair-share weight (must be positive and finite). A tenant with
    /// twice the priority gets twice the worker share under contention
    /// and drains its queue twice as fast per unit of measured usage.
    pub priority: f64,
    /// Name of a model registered with [`Service::register_model`] —
    /// factories cannot travel over the wire, so remote and local
    /// submits both name one.
    pub model: String,
    /// The run configuration. `load_balancing` is forced off (snapshots
    /// pin chains to levels; every serviced job is preemptible) and
    /// `seed` is re-derived through the tenant namespace.
    pub config: RuntimeConfig,
    /// Admission deadline on the predicted time-to-estimate under
    /// current load (seconds); `0` disables the deadline check.
    pub deadline: f64,
}

/// A point-in-time view of one job, served locally and over the wire.
#[derive(Clone, Debug)]
pub struct JobStatus {
    pub job: JobId,
    pub tenant: u64,
    pub state: JobState,
    /// The effective (tenant-namespaced) base seed the job runs under.
    pub seed: u64,
    /// Quiesce-barrier snapshots persisted so far (each is a valid
    /// resume point).
    pub snapshots: usize,
    /// Ledger serves measured by the job's tracer across all dispatches.
    pub serves: u64,
    /// [`levels_digest`] of the completed report (0 until `Completed`).
    pub digest: u64,
    /// Telescoping estimate of the completed report (empty until
    /// `Completed`).
    pub estimate: Vec<f64>,
    /// The admission prediction for this job (seconds, under the load
    /// seen at submit time).
    pub predicted_tte: f64,
}

struct Job {
    spec: JobSpec,
    state: JobState,
    /// Raised by preempt/cancel/shutdown; checked by the run at every
    /// completed quiesce barrier.
    stop: Arc<AtomicBool>,
    /// Cancel requested — the job ends `Cancelled` whatever the run
    /// returns.
    cancel: bool,
    /// Next dispatch resumes from the job store's latest snapshot.
    resume_next: bool,
    /// Worker share while `Running` (returned to the pool afterwards).
    workers: usize,
    effective_seed: u64,
    config_hash: u64,
    snapshots: usize,
    serves: u64,
    digest: u64,
    estimate: Vec<f64>,
    predicted_tte: f64,
}

impl Job {
    fn status(&self, id: JobId) -> JobStatus {
        JobStatus {
            job: id,
            tenant: self.spec.tenant,
            state: self.state,
            seed: self.effective_seed,
            snapshots: self.snapshots,
            serves: self.serves,
            digest: self.digest,
            estimate: self.estimate.clone(),
            predicted_tte: self.predicted_tte,
        }
    }
}

// ---------------------------------------------------------------------
// service
// ---------------------------------------------------------------------

/// Static policy of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Dispatcher lanes — the maximum number of concurrently running
    /// jobs.
    pub lanes: usize,
    /// Total worker budget split fair-share across running jobs.
    pub pool_workers: usize,
    /// Preemption quantum: every job checkpoints each `quantum`
    /// top-level corrections, so a preempt lands within one quantum.
    pub quantum: usize,
    /// Root directory of the per-job content-addressed run stores.
    pub store_root: PathBuf,
    /// Admission budget: maximum non-terminal jobs per tenant.
    pub max_jobs_per_tenant: usize,
}

impl ServiceConfig {
    pub fn new(store_root: impl Into<PathBuf>) -> Self {
        Self {
            lanes: 2,
            pool_workers: 4,
            quantum: 25,
            store_root: store_root.into(),
            max_jobs_per_tenant: 4,
        }
    }
}

#[derive(Default)]
struct State {
    jobs: BTreeMap<JobId, Job>,
    next_job: JobId,
    /// Cumulative measured serves per tenant (the fair-share signal).
    tenant_usage: BTreeMap<u64, u64>,
    /// Measured per-level mean evaluation seconds (EWMA over completed
    /// dispatches) — the admission model's input.
    eval_secs: Vec<f64>,
    /// Workers currently allocated to running jobs.
    workers_busy: usize,
    shutdown: bool,
}

impl State {
    fn active_jobs(&self, tenant: u64) -> usize {
        self.jobs
            .values()
            .filter(|j| j.spec.tenant == tenant && !j.state.is_terminal())
            .count()
    }

    fn inflight(&self) -> usize {
        self.jobs
            .values()
            .filter(|j| matches!(j.state, JobState::Queued | JobState::Running))
            .count()
    }
}

struct ServiceInner {
    config: ServiceConfig,
    state: Mutex<State>,
    cv: Condvar,
    models: Mutex<BTreeMap<String, Arc<dyn LevelFactory + Send + Sync>>>,
    tracer: Tracer,
    /// Orderly goodbyes received from remote clients (the signal a
    /// hosting process waits on before tearing the service down).
    byes: std::sync::atomic::AtomicU64,
}

/// The long-lived multi-tenant server. See the module docs for the
/// dispatch/admission/preemption semantics.
pub struct Service {
    inner: Arc<ServiceInner>,
    lanes: Vec<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    listen_addr: Option<SocketAddr>,
}

impl Service {
    /// Start the dispatcher lanes. `tracer` receives the service-level
    /// counters ([`Counter::JobsAdmitted`] / `JobsRejected` /
    /// `JobsPreempted`); each job additionally runs under its own
    /// always-on tracer whose measured serves feed the fair-share
    /// policy.
    ///
    /// # Panics
    /// Panics on a degenerate config (zero lanes/workers/quantum).
    pub fn start(config: ServiceConfig, tracer: &Tracer) -> Self {
        assert!(config.lanes >= 1, "service: need at least one lane");
        assert!(config.pool_workers >= 1, "service: need workers");
        assert!(config.quantum >= 1, "service: need a preemption quantum");
        assert!(config.max_jobs_per_tenant >= 1, "service: need a budget");
        let inner = Arc::new(ServiceInner {
            config,
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            models: Mutex::new(BTreeMap::new()),
            tracer: tracer.clone(),
            byes: std::sync::atomic::AtomicU64::new(0),
        });
        let lanes = (0..inner.config.lanes)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || lane_loop(&inner))
            })
            .collect();
        Self {
            inner,
            lanes,
            acceptor: None,
            listen_addr: None,
        }
    }

    /// Register a model under `name` for subsequent submits (local and
    /// remote). Re-registering a name replaces the factory.
    pub fn register_model(&self, name: &str, factory: Arc<dyn LevelFactory + Send + Sync>) {
        self.inner
            .models
            .lock()
            .expect("service models poisoned")
            .insert(name.to_string(), factory);
    }

    /// Submit a job: validate, admission-test against current load and
    /// enqueue. Returns the job id and the predicted time-to-estimate,
    /// or the rejection reason.
    pub fn submit(&self, spec: JobSpec) -> Result<(JobId, f64), String> {
        self.inner.submit(spec)
    }

    /// Point-in-time status of a job (`None` for an unknown id).
    pub fn status(&self, job: JobId) -> Option<JobStatus> {
        let st = self.inner.lock_state();
        st.jobs.get(&job).map(|j| j.status(job))
    }

    /// Cancel a job. Queued jobs are dequeued immediately; a running
    /// job is stopped at its next quiesce barrier; a preempted job is
    /// discarded. Always frees the tenant's budget; returns `false` if
    /// the job is unknown or already terminal.
    pub fn cancel(&self, job: JobId) -> bool {
        self.inner.cancel(job)
    }

    /// Request graceful preemption of a *running* job: it stops at its
    /// next quiesce barrier, which drains every in-flight serve first
    /// (nothing is suspended), the snapshot persists and the job parks
    /// as [`JobState::Preempted`]. Returns `false` unless the job is
    /// currently `Running`.
    pub fn preempt(&self, job: JobId) -> bool {
        self.inner.preempt(job)
    }

    /// Re-queue a preempted job; its next dispatch resumes from the
    /// latest snapshot, bit-identically. Returns `false` unless the job
    /// is `Preempted`.
    pub fn resume(&self, job: JobId) -> bool {
        self.inner.resume(job)
    }

    /// Block until `job` leaves the `Queued`/`Running` states and
    /// return its status (so it ends `Completed`, `Cancelled` or parked
    /// `Preempted`).
    ///
    /// # Panics
    /// Panics on an unknown job id.
    pub fn wait(&self, job: JobId) -> JobStatus {
        let mut st = self.inner.lock_state();
        loop {
            let j = st.jobs.get(&job).expect("service: wait on unknown job");
            if !matches!(j.state, JobState::Queued | JobState::Running) {
                return j.status(job);
            }
            st = self.inner.cv.wait(st).expect("service state poisoned");
        }
    }

    /// Block until no job is queued or running (preempted jobs park).
    pub fn quiesce(&self) {
        let mut st = self.inner.lock_state();
        while st
            .jobs
            .values()
            .any(|j| matches!(j.state, JobState::Queued | JobState::Running))
        {
            st = self.inner.cv.wait(st).expect("service state poisoned");
        }
    }

    /// Cumulative measured serves per tenant, sorted by tenant id — the
    /// `per_tenant` table of the v3 metrics schema
    /// ([`crate::obs::MetricsSnapshot::merge_service`]).
    pub fn per_tenant_serves(&self) -> Vec<(u64, u64)> {
        let st = self.inner.lock_state();
        st.tenant_usage.iter().map(|(&t, &s)| (t, s)).collect()
    }

    /// Orderly [`ServiceFrame::Bye`]s received from remote clients so
    /// far. A process hosting the service for N known clients can wait
    /// on this before shutting down, so no client gets the connection
    /// torn out from under a status poll.
    pub fn remote_byes(&self) -> u64 {
        self.inner.byes.load(Ordering::SeqCst)
    }

    /// Accept remote clients on `addr` (e.g. `"127.0.0.1:0"`); returns
    /// the bound address. One acceptor per service.
    pub fn listen(&mut self, addr: &str) -> io::Result<SocketAddr> {
        assert!(self.acceptor.is_none(), "service: already listening");
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::clone(&self.inner);
        self.acceptor = Some(std::thread::spawn(move || accept_loop(&listener, &inner)));
        self.listen_addr = Some(local);
        Ok(local)
    }

    /// Stop accepting work, preempt every running job at its next
    /// barrier, and join the lanes. Queued jobs stay queued (they would
    /// resume if a future service instance re-read the stores; this
    /// instance simply drops them).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut st = self.inner.lock_state();
            if st.shutdown {
                return;
            }
            st.shutdown = true;
            for j in st.jobs.values() {
                if j.state == JobState::Running {
                    j.stop.store(true, Ordering::SeqCst);
                }
            }
        }
        self.inner.cv.notify_all();
        // unblock the acceptor with a dummy connection
        if let Some(addr) = self.listen_addr.take() {
            let _ = TcpStream::connect(addr);
        }
        for lane in self.lanes.drain(..) {
            let _ = lane.join();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl ServiceInner {
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("service state poisoned")
    }

    fn model(&self, name: &str) -> Option<Arc<dyn LevelFactory + Send + Sync>> {
        self.models
            .lock()
            .expect("service models poisoned")
            .get(name)
            .cloned()
    }

    fn submit(&self, mut spec: JobSpec) -> Result<(JobId, f64), String> {
        let Some(factory) = self.model(&spec.model) else {
            self.tracer.incr(Counter::JobsRejected);
            return Err(format!("unknown model '{}'", spec.model));
        };
        if let Err(reason) = validate_spec(&spec, factory.as_ref()) {
            self.tracer.incr(Counter::JobsRejected);
            return Err(reason);
        }
        // every serviced job is preemptible: snapshots pin chains to
        // levels, so the balancer must stay off
        spec.config.base.load_balancing = false;
        let effective_seed = tenant_seed(spec.config.base.seed, spec.tenant);

        // tenant-sized work (a remote client picks `samples_per_level`):
        // on a copy of the measured times, outside the lock
        let eval_secs = self.lock_state().eval_secs.clone();
        let Some(solo) = predict_solo(&eval_secs, factory.as_ref(), &spec) else {
            self.tracer.incr(Counter::JobsRejected);
            return Err(format!(
                "admission denied: job too large to predict \
                 (more than {ADMISSION_POLL_BUDGET} simulated polls)"
            ));
        };

        let mut st = self.lock_state();
        if st.shutdown {
            self.tracer.incr(Counter::JobsRejected);
            return Err("service is shutting down".to_string());
        }
        if st.active_jobs(spec.tenant) >= self.config.max_jobs_per_tenant {
            self.tracer.incr(Counter::JobsRejected);
            return Err(format!(
                "tenant {} budget exhausted ({} active jobs)",
                spec.tenant, self.config.max_jobs_per_tenant
            ));
        }
        // the in-flight jobs sharing the lanes scale the solo prediction
        let predicted_tte = solo * (1.0 + st.inflight() as f64 / self.config.lanes as f64);
        if spec.deadline > 0.0 && predicted_tte > spec.deadline {
            self.tracer.incr(Counter::JobsRejected);
            return Err(format!(
                "admission denied: predicted time-to-estimate {predicted_tte:.3}s \
                 exceeds deadline {:.3}s under current load",
                spec.deadline
            ));
        }

        let id = st.next_job;
        st.next_job += 1;
        let config_hash = fnv1a(
            format!(
                "service job {id} tenant {} model {} seed {:#x}",
                spec.tenant, spec.model, effective_seed
            )
            .as_bytes(),
        );
        st.jobs.insert(
            id,
            Job {
                spec,
                state: JobState::Queued,
                stop: Arc::new(AtomicBool::new(false)),
                cancel: false,
                resume_next: false,
                workers: 0,
                effective_seed,
                config_hash,
                snapshots: 0,
                serves: 0,
                digest: 0,
                estimate: Vec::new(),
                predicted_tte,
            },
        );
        drop(st);
        self.tracer.incr(Counter::JobsAdmitted);
        self.cv.notify_all();
        Ok((id, predicted_tte))
    }

    fn preempt(&self, job: JobId) -> bool {
        let mut st = self.lock_state();
        match st.jobs.get_mut(&job) {
            Some(j) if j.state == JobState::Running => {
                j.stop.store(true, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }

    fn resume(&self, job: JobId) -> bool {
        let mut st = self.lock_state();
        match st.jobs.get_mut(&job) {
            Some(j) if j.state == JobState::Preempted => {
                j.state = JobState::Queued;
                j.resume_next = true;
                drop(st);
                self.cv.notify_all();
                true
            }
            _ => false,
        }
    }

    fn cancel(&self, job: JobId) -> bool {
        let mut st = self.lock_state();
        let Some(j) = st.jobs.get_mut(&job) else {
            return false;
        };
        match j.state {
            JobState::Completed | JobState::Cancelled => false,
            JobState::Queued | JobState::Preempted => {
                j.state = JobState::Cancelled;
                j.cancel = true;
                drop(st);
                self.cv.notify_all();
                true
            }
            JobState::Running => {
                j.cancel = true;
                j.stop.store(true, Ordering::SeqCst);
                true
            }
        }
    }
}

/// The admission model: the job's own targets, burn-in, chains and seed
/// as the real role machines in virtual time, on the stand-in target, at
/// the *measured* per-level evaluation times. Returns the solo makespan
/// in seconds, or `None` past [`ADMISSION_POLL_BUDGET`].
fn predict_solo(eval_secs: &[f64], factory: &dyn LevelFactory, spec: &JobSpec) -> Option<f64> {
    let (n_levels, base) = (spec.config.n_levels(), &spec.config.base);
    let seed = base.seed;
    let cost = SimCost {
        eval_time: (0..n_levels)
            .map(|l| eval_secs.get(l).copied().unwrap_or(DEFAULT_EVAL_SECS))
            .collect(),
        eval_jitter: 0.0,
        phonebook_service_time: 0.0,
        collector_service_time: 0.0,
        latency: 0.0,
        poll_budget: ADMISSION_POLL_BUDGET,
    };
    let mut config = RuntimeConfig::new(
        base.samples_per_level.clone(),
        base.chains_per_level.clone(),
    );
    config.base.burn_in = base.burn_in.clone();
    config.base.load_balancing = false;
    config.base.seed = seed;
    let model = StandIn::new((0..n_levels).map(|l| factory.subsampling_rate(l)).collect());
    let off = Tracer::disabled();
    let placement = Placement::Sim { cost: &cost, seed };
    let prediction = Run::new(&model, &config, &off, None, None).on(placement);
    Some(prediction.ok()?.report.elapsed)
}

fn validate_spec(spec: &JobSpec, factory: &dyn LevelFactory) -> Result<(), String> {
    if !(spec.priority.is_finite() && spec.priority > 0.0) {
        return Err(format!("priority must be positive, got {}", spec.priority));
    }
    let config = &spec.config;
    let n_levels = config.n_levels();
    if n_levels == 0 {
        return Err("config has no levels".to_string());
    }
    if n_levels > factory.n_levels() {
        return Err(format!(
            "config has {n_levels} levels but model '{}' provides {}",
            spec.model,
            factory.n_levels()
        ));
    }
    if config.base.burn_in.len() != n_levels || config.base.chains_per_level.len() != n_levels {
        return Err("per-level vectors have mismatched lengths".to_string());
    }
    if config.base.chains_per_level.contains(&0) {
        return Err("every level needs at least one chain".to_string());
    }
    if config.collector_shards != 1 {
        return Err("every level has one collector: `collector_shards` must be 1".to_string());
    }
    if config.n_workers == 0 {
        return Err("need at least one worker".to_string());
    }
    // a remote client picks these numbers: with none of them over the cap
    // alone, `n_ranks` cannot wrap before it is compared
    let mut picked = config.base.chains_per_level.iter().chain([&n_levels]);
    if picked.any(|&n| n > ADMISSION_RANK_CAP) || config.base.n_ranks() > ADMISSION_RANK_CAP {
        return Err(format!(
            "admission denied: the universe exceeds the cap of {ADMISSION_RANK_CAP} ranks"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// dispatcher lanes
// ---------------------------------------------------------------------

/// Fair-share pick: the queued job minimizing
/// `(tenant's measured usage + 1) / priority`, ties toward the older
/// job. Usage is cumulative measured serves, so a tenant that has
/// consumed more of the pool yields to one that hasn't, proportionally
/// to priority.
fn pick(st: &State) -> Option<JobId> {
    st.jobs
        .iter()
        .filter(|(_, j)| j.state == JobState::Queued)
        .min_by(|(a, ja), (b, jb)| {
            let usage = |j: &Job| *st.tenant_usage.get(&j.spec.tenant).unwrap_or(&0);
            let score_a = (usage(ja) + 1) as f64 / ja.spec.priority;
            let score_b = (usage(jb) + 1) as f64 / jb.spec.priority;
            score_a
                .partial_cmp(&score_b)
                .expect("finite fair-share scores")
                .then(a.cmp(b))
        })
        .map(|(&id, _)| id)
}

/// Split the pool across the currently running jobs (plus the claimed
/// one) and return the claimed job's share, clamped to what the pool
/// still has free (always at least 1 — lanes never exceed the pool in a
/// sane config, and a transiently oversubscribed worker is only a
/// cooperative thread).
fn worker_share(st: &State, pool: usize, claimed: JobId) -> usize {
    let mut ids: Vec<JobId> = st
        .jobs
        .iter()
        .filter(|(&id, j)| j.state == JobState::Running || id == claimed)
        .map(|(&id, _)| id)
        .collect();
    ids.sort_unstable();
    let demands: Vec<usize> = ids
        .iter()
        .map(|id| st.jobs[id].spec.config.n_workers)
        .collect();
    let weights: Vec<f64> = ids.iter().map(|id| st.jobs[id].spec.priority).collect();
    let split = fair_share_split(pool, &demands, &weights);
    let mine = split[ids
        .iter()
        .position(|&id| id == claimed)
        .expect("claimed job listed")];
    let free = pool.saturating_sub(st.workers_busy);
    mine.clamp(1, free.max(1))
}

fn lane_loop(inner: &Arc<ServiceInner>) {
    loop {
        // claim the next job under the fair-share policy
        let (id, factory, config, config_hash, stop, resume_next, workers) = {
            let mut st = inner.lock_state();
            let id = loop {
                if st.shutdown {
                    return;
                }
                if let Some(id) = pick(&st) {
                    break id;
                }
                st = inner.cv.wait(st).expect("service state poisoned");
            };
            let workers = worker_share(&st, inner.config.pool_workers, id);
            st.workers_busy += workers;
            let j = st.jobs.get_mut(&id).expect("picked job exists");
            j.state = JobState::Running;
            j.workers = workers;
            j.stop.store(false, Ordering::SeqCst);
            let resume_next = std::mem::take(&mut j.resume_next);
            let mut config = j.spec.config.clone();
            config.base.seed = j.effective_seed;
            let factory = inner
                .models
                .lock()
                .expect("service models poisoned")
                .get(&j.spec.model)
                .cloned()
                .expect("model validated at submit");
            (
                id,
                factory,
                config,
                j.config_hash,
                Arc::clone(&j.stop),
                resume_next,
                workers,
            )
        };
        let store = RunStore::open(inner.config.store_root.join(format!("job-{id}")))
            .expect("service: cannot open job store");
        let resume_snap = if resume_next {
            Some(
                store
                    .latest_snapshot(Some(config_hash))
                    .expect("service: job store manifest unreadable")
                    .expect("service: resume without a snapshot")
                    .1,
            )
        } else {
            None
        };

        let inner_hook = Arc::clone(inner);
        let hook = move |_done: usize, _hash: &str| {
            let mut st = inner_hook.lock_state();
            if let Some(j) = st.jobs.get_mut(&id) {
                j.snapshots += 1;
            }
            drop(st);
            inner_hook.cv.notify_all();
        };
        let ckpt = ParallelCheckpoint {
            store: &store,
            config_hash,
            every: inner.config.quantum,
            on_snapshot: Some(&hook),
            stop: Some(&stop),
        };
        // per-job tracer: always on, so serves are *measured* for the
        // fair-share ledger (tracing is bit-parity-inert, pinned by the
        // PR-8 obs conformance suite)
        let job_tracer = Tracer::new();
        let run = Run::new(
            factory.as_ref(),
            &config,
            &job_tracer,
            Some(&ckpt),
            resume_snap.as_ref(),
        );
        let pool = Runtime::new(workers);
        let rt = run.on(Placement::Pool(&pool)).expect("a live run");

        let serves = job_tracer.counter(Counter::Serves);
        let mut st = inner.lock_state();
        for level in &rt.report.levels {
            if level.evaluations > 0 {
                if st.eval_secs.len() <= level.level {
                    st.eval_secs.resize(level.level + 1, DEFAULT_EVAL_SECS);
                }
                let ewma = &mut st.eval_secs[level.level];
                *ewma = 0.5 * *ewma + 0.5 * (level.mean_eval_ms * 1e-3);
            }
        }
        let tenant = st.jobs[&id].spec.tenant;
        *st.tenant_usage.entry(tenant).or_insert(0) += serves;
        st.workers_busy -= workers;
        let j = st.jobs.get_mut(&id).expect("running job exists");
        j.serves += serves;
        j.workers = 0;
        if j.cancel {
            j.state = JobState::Cancelled;
        } else if rt.preempted {
            j.state = JobState::Preempted;
            inner.tracer.incr(Counter::JobsPreempted);
        } else {
            j.state = JobState::Completed;
            j.digest = levels_digest(&rt.report.levels);
            j.estimate = rt.report.expectation();
        }
        drop(st);
        inner.cv.notify_all();
    }
}

// ---------------------------------------------------------------------
// wire protocol (PR-9 frame format, service magic)
// ---------------------------------------------------------------------

/// One service request or reply.
#[derive(Clone, Debug)]
pub enum ServiceFrame {
    /// Client → service: admission-test and enqueue a job.
    Submit(Box<JobSpec>),
    /// Service → client: the job was admitted.
    Submitted { job: JobId, predicted_tte: f64 },
    /// Service → client: the submit was turned away.
    Denied { reason: String },
    /// Client → service: status query.
    Status { job: JobId },
    /// Service → client: status reply.
    StatusIs(Box<JobStatus>),
    /// Service → client: no such job.
    NoSuchJob,
    /// Client → service: cancel.
    Cancel { job: JobId },
    /// Client → service: preempt a running job.
    Preempt { job: JobId },
    /// Client → service: resume a preempted job.
    Resume { job: JobId },
    /// Service → client: cancel/preempt/resume outcome.
    Ack { ok: bool },
    /// Either direction: orderly goodbye.
    Bye,
}

impl Codec for JobState {
    fn encode(&self, enc: &mut Enc) {
        let tag: u8 = match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Preempted => 2,
            JobState::Completed => 3,
            JobState::Cancelled => 4,
        };
        tag.encode(enc);
    }

    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(match u8::decode(dec)? {
            0 => JobState::Queued,
            1 => JobState::Running,
            2 => JobState::Preempted,
            3 => JobState::Completed,
            4 => JobState::Cancelled,
            _ => return Err(StoreError::Corrupt("invalid JobState tag")),
        })
    }
}

/// `collector_shards` is not written: every level has one collector, and
/// decode sets 1.
impl Codec for RuntimeConfig {
    fn encode(&self, enc: &mut Enc) {
        self.base.encode(enc);
        self.n_workers.encode(enc);
    }

    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(Self {
            base: Codec::decode(dec)?,
            n_workers: Codec::decode(dec)?,
            collector_shards: 1,
        })
    }
}

impl Codec for JobSpec {
    fn encode(&self, enc: &mut Enc) {
        self.tenant.encode(enc);
        self.priority.encode(enc);
        self.model.encode(enc);
        self.config.encode(enc);
        self.deadline.encode(enc);
    }

    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(Self {
            tenant: Codec::decode(dec)?,
            priority: Codec::decode(dec)?,
            model: Codec::decode(dec)?,
            config: Codec::decode(dec)?,
            deadline: Codec::decode(dec)?,
        })
    }
}

impl Codec for JobStatus {
    fn encode(&self, enc: &mut Enc) {
        self.job.encode(enc);
        self.tenant.encode(enc);
        self.state.encode(enc);
        self.seed.encode(enc);
        self.snapshots.encode(enc);
        self.serves.encode(enc);
        self.digest.encode(enc);
        self.estimate.encode(enc);
        self.predicted_tte.encode(enc);
    }

    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(Self {
            job: Codec::decode(dec)?,
            tenant: Codec::decode(dec)?,
            state: Codec::decode(dec)?,
            seed: Codec::decode(dec)?,
            snapshots: Codec::decode(dec)?,
            serves: Codec::decode(dec)?,
            digest: Codec::decode(dec)?,
            estimate: Codec::decode(dec)?,
            predicted_tte: Codec::decode(dec)?,
        })
    }
}

impl Codec for ServiceFrame {
    fn encode(&self, enc: &mut Enc) {
        match self {
            ServiceFrame::Submit(spec) => {
                0u8.encode(enc);
                spec.encode(enc);
            }
            ServiceFrame::Submitted { job, predicted_tte } => {
                1u8.encode(enc);
                job.encode(enc);
                predicted_tte.encode(enc);
            }
            ServiceFrame::Denied { reason } => {
                2u8.encode(enc);
                reason.encode(enc);
            }
            ServiceFrame::Status { job } => {
                3u8.encode(enc);
                job.encode(enc);
            }
            ServiceFrame::StatusIs(status) => {
                4u8.encode(enc);
                status.encode(enc);
            }
            ServiceFrame::NoSuchJob => 5u8.encode(enc),
            ServiceFrame::Cancel { job } => {
                6u8.encode(enc);
                job.encode(enc);
            }
            ServiceFrame::Preempt { job } => {
                7u8.encode(enc);
                job.encode(enc);
            }
            ServiceFrame::Resume { job } => {
                8u8.encode(enc);
                job.encode(enc);
            }
            ServiceFrame::Ack { ok } => {
                9u8.encode(enc);
                ok.encode(enc);
            }
            ServiceFrame::Bye => 10u8.encode(enc),
        }
    }

    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(match u8::decode(dec)? {
            0 => ServiceFrame::Submit(Codec::decode(dec)?),
            1 => ServiceFrame::Submitted {
                job: Codec::decode(dec)?,
                predicted_tte: Codec::decode(dec)?,
            },
            2 => ServiceFrame::Denied {
                reason: Codec::decode(dec)?,
            },
            3 => ServiceFrame::Status {
                job: Codec::decode(dec)?,
            },
            4 => ServiceFrame::StatusIs(Codec::decode(dec)?),
            5 => ServiceFrame::NoSuchJob,
            6 => ServiceFrame::Cancel {
                job: Codec::decode(dec)?,
            },
            7 => ServiceFrame::Preempt {
                job: Codec::decode(dec)?,
            },
            8 => ServiceFrame::Resume {
                job: Codec::decode(dec)?,
            },
            9 => ServiceFrame::Ack {
                ok: Codec::decode(dec)?,
            },
            10 => ServiceFrame::Bye,
            _ => return Err(StoreError::Corrupt("invalid ServiceFrame tag")),
        })
    }
}

/// Encode a frame in the shared wire layout
/// ([`uq_mlmcmc::wire::frame_encode`] under `SVC_FORMAT`).
pub fn encode_service_frame(frame: &ServiceFrame) -> Vec<u8> {
    frame_encode(&SVC_FORMAT, frame)
}

/// Decode one service frame, validating magic, version, length and
/// checksum — the same typed error ladder as the net wire.
pub fn decode_service_frame(bytes: &[u8]) -> Result<ServiceFrame, StoreError> {
    frame_decode(&SVC_FORMAT, bytes)
}

fn corrupt(err: StoreError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err)
}

fn write_frame(stream: &mut TcpStream, frame: &ServiceFrame) -> io::Result<()> {
    stream.write_all(&encode_service_frame(frame))
}

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary.
fn read_frame(stream: &mut TcpStream) -> io::Result<Option<ServiceFrame>> {
    Ok(frame_read(&SVC_FORMAT, stream)?.map(|(frame, _)| frame))
}

fn accept_loop(listener: &TcpListener, inner: &Arc<ServiceInner>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if inner.lock_state().shutdown {
            return;
        }
        let inner = Arc::clone(inner);
        std::thread::spawn(move || {
            let mut stream = stream;
            let _ = serve_connection(&mut stream, &inner);
        });
    }
}

fn serve_connection(stream: &mut TcpStream, inner: &Arc<ServiceInner>) -> io::Result<()> {
    while let Some(frame) = read_frame(stream)? {
        let reply = match frame {
            ServiceFrame::Submit(spec) => match inner.submit(*spec) {
                Ok((job, predicted_tte)) => ServiceFrame::Submitted { job, predicted_tte },
                Err(reason) => ServiceFrame::Denied { reason },
            },
            ServiceFrame::Status { job } => {
                let st = inner.lock_state();
                match st.jobs.get(&job) {
                    Some(j) => ServiceFrame::StatusIs(Box::new(j.status(job))),
                    None => ServiceFrame::NoSuchJob,
                }
            }
            ServiceFrame::Cancel { job } => ServiceFrame::Ack {
                ok: inner.cancel(job),
            },
            ServiceFrame::Preempt { job } => ServiceFrame::Ack {
                ok: inner.preempt(job),
            },
            ServiceFrame::Resume { job } => ServiceFrame::Ack {
                ok: inner.resume(job),
            },
            ServiceFrame::Bye => {
                inner.byes.fetch_add(1, Ordering::SeqCst);
                write_frame(stream, &ServiceFrame::Bye)?;
                return Ok(());
            }
            // reply-only frames are protocol errors from a client
            ServiceFrame::Submitted { .. }
            | ServiceFrame::Denied { .. }
            | ServiceFrame::StatusIs(_)
            | ServiceFrame::NoSuchJob
            | ServiceFrame::Ack { .. } => {
                return Err(corrupt(StoreError::Corrupt("unexpected client frame")))
            }
        };
        write_frame(stream, &reply)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// client
// ---------------------------------------------------------------------

/// A blocking request–reply client for a remote [`Service`].
pub struct ServiceClient {
    stream: TcpStream,
}

impl ServiceClient {
    /// Connect, retrying for a few seconds so client processes can
    /// start before the service finishes binding (mirrors the net
    /// transport's worker rendezvous).
    pub fn connect(addr: &str) -> io::Result<Self> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(Self { stream });
                }
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn call(&mut self, frame: &ServiceFrame) -> io::Result<ServiceFrame> {
        write_frame(&mut self.stream, frame)?;
        read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "service hung up mid-call"))
    }

    /// Submit a job; `Ok(Err(reason))` is an admission rejection.
    #[allow(clippy::result_large_err)]
    pub fn submit(&mut self, spec: JobSpec) -> io::Result<Result<(JobId, f64), String>> {
        match self.call(&ServiceFrame::Submit(Box::new(spec)))? {
            ServiceFrame::Submitted { job, predicted_tte } => Ok(Ok((job, predicted_tte))),
            ServiceFrame::Denied { reason } => Ok(Err(reason)),
            other => Err(corrupt(StoreError::Corrupt(frame_name(&other)))),
        }
    }

    pub fn status(&mut self, job: JobId) -> io::Result<Option<JobStatus>> {
        match self.call(&ServiceFrame::Status { job })? {
            ServiceFrame::StatusIs(status) => Ok(Some(*status)),
            ServiceFrame::NoSuchJob => Ok(None),
            other => Err(corrupt(StoreError::Corrupt(frame_name(&other)))),
        }
    }

    pub fn cancel(&mut self, job: JobId) -> io::Result<bool> {
        self.ack(&ServiceFrame::Cancel { job })
    }

    pub fn preempt(&mut self, job: JobId) -> io::Result<bool> {
        self.ack(&ServiceFrame::Preempt { job })
    }

    pub fn resume(&mut self, job: JobId) -> io::Result<bool> {
        self.ack(&ServiceFrame::Resume { job })
    }

    fn ack(&mut self, frame: &ServiceFrame) -> io::Result<bool> {
        match self.call(frame)? {
            ServiceFrame::Ack { ok } => Ok(ok),
            other => Err(corrupt(StoreError::Corrupt(frame_name(&other)))),
        }
    }

    /// Poll until the job leaves `Queued`/`Running` (remote counterpart
    /// of [`Service::wait`]).
    pub fn wait(&mut self, job: JobId) -> io::Result<JobStatus> {
        loop {
            let status = self
                .status(job)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "wait on unknown job"))?;
            if !matches!(status.state, JobState::Queued | JobState::Running) {
                return Ok(status);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Orderly goodbye (the service closes the connection after).
    pub fn bye(mut self) -> io::Result<()> {
        match self.call(&ServiceFrame::Bye)? {
            ServiceFrame::Bye => Ok(()),
            other => Err(corrupt(StoreError::Corrupt(frame_name(&other)))),
        }
    }
}

fn frame_name(frame: &ServiceFrame) -> &'static str {
    match frame {
        ServiceFrame::Submit(_) => "unexpected Submit reply",
        ServiceFrame::Submitted { .. } => "unexpected Submitted reply",
        ServiceFrame::Denied { .. } => "unexpected Denied reply",
        ServiceFrame::Status { .. } => "unexpected Status reply",
        ServiceFrame::StatusIs(_) => "unexpected StatusIs reply",
        ServiceFrame::NoSuchJob => "unexpected NoSuchJob reply",
        ServiceFrame::Cancel { .. } => "unexpected Cancel reply",
        ServiceFrame::Preempt { .. } => "unexpected Preempt reply",
        ServiceFrame::Resume { .. } => "unexpected Resume reply",
        ServiceFrame::Ack { .. } => "unexpected Ack reply",
        ServiceFrame::Bye => "unexpected Bye reply",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ParallelConfig;
    use uq_mlmcmc::ledger::PairingMode;

    fn spec() -> JobSpec {
        let mut base = ParallelConfig::new(vec![40, 20], vec![1, 1]);
        base.burn_in = vec![4, 2];
        base.seed = 77;
        base.record_samples = true;
        base.pairing = PairingMode::Ledger;
        JobSpec {
            tenant: 3,
            priority: 2.0,
            model: "ridge".to_string(),
            config: RuntimeConfig {
                base,
                n_workers: 1,
                collector_shards: 1,
            },
            deadline: 0.0,
        }
    }

    /// A service whose "ridge" model is the ridge as a stand-in.
    fn service(tag: &str, tracer: &Tracer) -> Service {
        let dir = std::env::temp_dir().join(format!("uq-svc-{tag}-{}", std::process::id()));
        let service = Service::start(ServiceConfig::new(dir), tracer);
        let ridge = crate::roles::StandIn {
            means: vec![0.0, 0.35],
            sds: vec![0.15, 0.12],
            rho: vec![2, 2],
        };
        service.register_model("ridge", Arc::new(ridge));
        service
    }

    #[test]
    fn a_job_too_large_to_predict_is_denied_and_counted() {
        let tracer = Tracer::new();
        let service = service("large", &tracer);
        let mut huge = spec();
        huge.config.base.samples_per_level = vec![40_000_000, 20];
        let reason = service
            .submit(huge)
            .expect_err("no prediction, no admission");
        assert!(reason.contains("too large to predict"), "{reason}");
        assert_eq!(tracer.counter(Counter::JobsRejected), 1);
        assert!(service.submit(spec()).is_ok(), "a small job still gets in");
    }

    #[test]
    fn a_job_of_too_many_ranks_is_denied_before_anything_is_sized() {
        // a remote `Submit` picks these numbers: either alone would size
        // the prediction's per-rank state, and their plain sum wraps
        let sized = |chains: usize| {
            let mut job = spec();
            job.config.base.chains_per_level = vec![chains, 1];
            job
        };
        let tracer = Tracer::new();
        let mut service = service("ranks", &tracer);
        let addr = service.listen("127.0.0.1:0").expect("listen").to_string();
        let mut client = ServiceClient::connect(&addr).expect("connect");
        for chains in [1 << 40, usize::MAX] {
            let local = service.submit(sized(chains)).expect_err("denied");
            assert!(local.contains("exceeds the cap of 4096"), "{local}");
            let remote = client.submit(sized(chains)).expect("io");
            assert_eq!(remote, Err(local));
        }
        // a collector count other than one per level never travels, and
        // is refused in process
        let mut sharded = spec();
        sharded.config.collector_shards = 2;
        let local = service.submit(sharded).expect_err("denied");
        assert!(local.contains("`collector_shards` must be 1"), "{local}");
        assert_eq!(tracer.counter(Counter::JobsRejected), 5);
        // a Fig. 11 universe of 1024 ranks is under the cap
        let ridge = crate::roles::StandIn::two_level();
        assert_eq!(validate_spec(&sized(1019), &ridge), Ok(()));
        assert!(service.submit(spec()).is_ok(), "a small job still gets in");
    }

    #[test]
    fn a_prediction_is_unchanged_by_concurrent_submits() {
        // the `service_conformance` job
        let mut job = spec();
        job.config.base.samples_per_level = vec![300, 100];
        job.config.base.burn_in = vec![30, 20];
        let off = Tracer::disabled();
        let alone = service("alone", &off)
            .submit(job.clone())
            .expect("admitted");
        // the same submit while three clients keep the admission model
        // busy with jobs it turns away, so that none is ever in flight
        let tracer = Tracer::new();
        let busy = service("busy", &tracer);
        let mut hopeless = job.clone();
        hopeless.deadline = 1e-9;
        let beside = std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    (0..20).for_each(|_| assert!(busy.submit(hopeless.clone()).is_err()))
                });
            }
            busy.submit(job).expect("admitted")
        });
        assert_eq!(beside.1.to_bits(), alone.1.to_bits());
        assert_eq!(tracer.counter(Counter::JobsRejected), 60);
    }

    #[test]
    fn service_frames_round_trip() {
        let frames = vec![
            ServiceFrame::Submit(Box::new(spec())),
            ServiceFrame::Submitted {
                job: 9,
                predicted_tte: 1.25,
            },
            ServiceFrame::Denied {
                reason: "no".to_string(),
            },
            ServiceFrame::Status { job: 4 },
            ServiceFrame::StatusIs(Box::new(JobStatus {
                job: 4,
                tenant: 3,
                state: JobState::Preempted,
                seed: 0xAB,
                snapshots: 2,
                serves: 41,
                digest: 0xDEAD,
                estimate: vec![0.25, -1.5],
                predicted_tte: 0.5,
            })),
            ServiceFrame::NoSuchJob,
            ServiceFrame::Cancel { job: 1 },
            ServiceFrame::Preempt { job: 2 },
            ServiceFrame::Resume { job: 3 },
            ServiceFrame::Ack { ok: true },
            ServiceFrame::Bye,
        ];
        for frame in frames {
            let bytes = encode_service_frame(&frame);
            let back = decode_service_frame(&bytes).expect("round trip");
            assert_eq!(
                format!("{frame:?}"),
                format!("{back:?}"),
                "frame changed across the wire"
            );
        }
    }

    #[test]
    fn torn_and_flipped_service_frames_are_rejected() {
        let bytes = encode_service_frame(&ServiceFrame::Submit(Box::new(spec())));
        assert!(matches!(
            decode_service_frame(&bytes[..bytes.len() - 1]),
            Err(StoreError::Truncated { .. })
        ));
        // magic, version, length, payload, trailer: the net wire's ladder
        for i in [0, 9, 15, 25, bytes.len() - 3] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let err = decode_service_frame(&bad).expect_err("flipped byte must not decode");
            assert!(
                matches!(
                    (i, &err),
                    (0, StoreError::BadMagic)
                        | (9, StoreError::BadVersion { .. })
                        | (15, StoreError::Corrupt("frame length exceeds cap"))
                        | (25.., StoreError::ChecksumMismatch { .. })
                ),
                "flipped byte {i}: {err:?}"
            );
        }
        // same layout, other wire: refused at the magic
        let net_frame = crate::net::encode_frame(&crate::net::Frame::Ready);
        assert!(matches!(
            decode_service_frame(&net_frame),
            Err(StoreError::BadMagic)
        ));
    }

    #[test]
    fn a_v3_service_frame_is_refused_at_the_version_field() {
        // v3's job config still carried the speculation switch: the
        // previous version is refused, never decoded
        let mut v3 = encode_service_frame(&ServiceFrame::Submit(Box::new(spec())));
        v3[8..12].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            decode_service_frame(&v3),
            Err(StoreError::BadVersion { found: 3 })
        ));
    }
}
