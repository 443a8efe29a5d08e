//! The five workloads: how each is built from a seed, what one
//! repetition of it does, and how its outputs are checked.
//!
//! A workload is prepared once (model hierarchy, worker pool or service)
//! and then repeated: every repetition runs the same seeded configuration
//! from the run call to the assembled report, so its wall time is a
//! time-to-estimate at fixed `N_l` and the repetitions are identical
//! work. The program under test only ever sees generated configurations
//! (`MlmcmcConfig`, `RuntimeConfig`, `ParallelConfig`, `JobSpec`).

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use uq_fem::problem::{constants::TRUTH_SEED, PoissonFactory};
use uq_fem::PoissonHierarchy;
use uq_mcmc::SamplingProblem;
use uq_mlmcmc::ledger::tenant_seed;
use uq_mlmcmc::store::fnv1a;
use uq_mlmcmc::{run_sequential, LevelFactory, MlmcmcConfig, RunSnapshot, RunStore};
use uq_parallel::scheduler::ParallelLevelReport;
use uq_parallel::{
    levels_digest, run_net_worker, run_parallel, run_runtime, run_runtime_on, Counter, JobId,
    JobSpec, JobState, NetDriver, NetDriverOptions, NetWorkerOptions, ParallelConfig, Runtime,
    RuntimeConfig, RuntimeReport, Service, ServiceConfig, Tracer,
};
use uq_swe::tohoku::Resolution;
use uq_swe::TsunamiHierarchy;

use crate::host;

// ---------------------------------------------------------------------
// the workloads and their frozen sizes
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    TsunamiSeq,
    PoissonRuntime,
    RanksRuntime,
    PoissonNet,
    ServiceMix,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::TsunamiSeq,
        Kind::PoissonRuntime,
        Kind::RanksRuntime,
        Kind::PoissonNet,
        Kind::ServiceMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TsunamiSeq => "tsunami_seq",
            Kind::PoissonRuntime => "poisson_runtime",
            Kind::RanksRuntime => "ranks_runtime",
            Kind::PoissonNet => "poisson_net",
            Kind::ServiceMix => "service_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether a repetition's digest must repeat bit for bit: one chain
    /// per level and either one thread or the blocking role protocol.
    /// The two runtime workloads run several chains per level on two
    /// stealing workers, so their sample streams interleave differently
    /// from run to run.
    pub fn deterministic(self) -> bool {
        matches!(self, Kind::TsunamiSeq | Kind::PoissonNet | Kind::ServiceMix)
    }

    /// Frozen samples per level, one entry per job shape (batch workloads
    /// have one shape). Sized on a 2-vCPU host so one repetition takes
    /// 1–1.5 s; see `README.md` for the sizing measurements.
    fn shapes(self) -> Vec<Vec<usize>> {
        match self {
            Kind::TsunamiSeq => vec![vec![12, 3, 1]],
            Kind::PoissonRuntime => vec![vec![1000, 200, 50]],
            Kind::RanksRuntime => vec![vec![40_000, 10_000]],
            Kind::PoissonNet => vec![vec![2500, 625]],
            Kind::ServiceMix => vec![vec![400, 100], vec![750, 200], vec![1500, 400]],
        }
    }

    /// Chains per level.
    fn chains(self) -> Vec<usize> {
        match self {
            Kind::TsunamiSeq => vec![1, 1, 1],
            Kind::PoissonRuntime => vec![2, 2, 2],
            Kind::RanksRuntime => vec![64, 64],
            Kind::PoissonNet | Kind::ServiceMix => vec![1, 1],
        }
    }

    /// Key of this workload's model hierarchy in `refs/forward.txt`.
    pub fn model_key(self) -> &'static str {
        match self {
            Kind::TsunamiSeq => "tsunami_reduced",
            Kind::PoissonRuntime => "poisson_m113_n16-32-64",
            Kind::RanksRuntime => "poisson_m8_n4-8",
            Kind::PoissonNet | Kind::ServiceMix => "poisson_m24_n8-16",
        }
    }
}

/// Jobs in one `service_mix` repetition.
pub const JOBS_PER_MIX: usize = 16;
/// Tenants of `service_mix` and their fair-share priorities.
const TENANT_PRIORITY: [f64; 4] = [1.0, 1.0, 2.0, 4.0];

/// Which size a repetition runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The frozen size: what the timed repetitions run.
    Full,
    /// A quarter of it: the warm-up that ends set-up. It walks every
    /// level, role and code path of a full repetition.
    Warm,
}

fn scaled(shape: &[usize], scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => shape.to_vec(),
        Scale::Warm => shape.iter().map(|&n| (n / 4).max(1)).collect(),
    }
}

// ---------------------------------------------------------------------
// models
// ---------------------------------------------------------------------

enum Model {
    Tsunami(Arc<TsunamiHierarchy>),
    Poisson(Arc<PoissonFactory>),
}

impl Model {
    fn build(kind: Kind) -> Model {
        let poisson = |m: usize, levels: &[usize], rho: &[usize]| {
            let hierarchy = PoissonHierarchy::new(m, levels.to_vec(), TRUTH_SEED);
            Model::Poisson(Arc::new(PoissonFactory::new(hierarchy, rho.to_vec())))
        };
        match kind {
            Kind::TsunamiSeq => {
                Model::Tsunami(Arc::new(TsunamiHierarchy::new(Resolution::Reduced)))
            }
            Kind::PoissonRuntime => poisson(113, &[16, 32, 64], &[10, 4]),
            Kind::RanksRuntime => poisson(8, &[4, 8], &[4]),
            Kind::PoissonNet | Kind::ServiceMix => poisson(24, &[8, 16], &[5]),
        }
    }

    fn factory(&self) -> Arc<dyn LevelFactory + Send + Sync> {
        match self {
            Model::Tsunami(h) => Arc::clone(h) as _,
            Model::Poisson(f) => Arc::clone(f) as _,
        }
    }

    /// Forward-model outputs of every level at one fixed parameter, each
    /// from a freshly built model (no warm start), to compare with the
    /// committed reference.
    fn forward_at_reference(&self) -> Vec<Vec<f64>> {
        match self {
            Model::Tsunami(h) => (0..3)
                .map(|l| h.problem_for(l).model_mut().forward(&[10.0, -20.0]))
                .collect(),
            Model::Poisson(f) => {
                let h = f.hierarchy();
                let theta: Vec<f64> = (0..h.dim()).map(|k| 0.5 * ((k + 1) as f64).sin()).collect();
                (0..h.n_levels())
                    .map(|l| h.problem(l).model_mut().forward(&theta))
                    .collect()
            }
        }
    }
}

/// Reference forward outputs for `kind`'s hierarchy, level by level.
pub fn forward_at_reference(kind: Kind) -> Vec<Vec<f64>> {
    Model::build(kind).forward_at_reference()
}

// ---------------------------------------------------------------------
// the benchmark's own span around every forward evaluation
// ---------------------------------------------------------------------

const MAX_LEVELS: usize = 3;

/// Busy time and count of `log_density` calls per level, recorded by the
/// benchmark's wrapper around `LevelFactory::problem` in the traced pass
/// (pacing snippets run before the timer starts and are not counted).
#[derive(Default)]
pub struct EvalProbe {
    busy_ns: [AtomicU64; MAX_LEVELS],
    count: [AtomicU64; MAX_LEVELS],
}

impl EvalProbe {
    pub fn busy_s(&self, level: usize) -> f64 {
        self.busy_ns[level].load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn count(&self, level: usize) -> u64 {
        self.count[level].load(Ordering::Relaxed)
    }

    pub fn total_busy_s(&self) -> f64 {
        (0..MAX_LEVELS).map(|l| self.busy_s(l)).sum()
    }

    pub fn reset(&self) {
        for l in 0..MAX_LEVELS {
            self.busy_ns[l].store(0, Ordering::Relaxed);
            self.count[l].store(0, Ordering::Relaxed);
        }
    }
}

/// Known extra work after every forward evaluation, switched on only by
/// the sensitivity check (`run::sensitivity`): it must show in the
/// normalised timings at its raw size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    Off,
    /// Spin in registers for a tenth of the evaluation's own duration:
    /// +10 % of evaluation work with no cache footprint.
    Spin,
    /// At most every [`THRASH_PERIOD`] per thread, write to every cache
    /// line of a private 4 MiB buffer (twice a core's L2 on this host): the
    /// program pays the sweep and then its own refills.
    Thrash,
}

const THRASH_PERIOD: Duration = Duration::from_millis(10);
const THRASH_WORDS: usize = 4 << 17;

static INJECT: AtomicU8 = AtomicU8::new(Inject::Off as u8);
static INJECTED_NS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THRASH: RefCell<(Option<Instant>, Vec<u64>)> = const { RefCell::new((None, Vec::new())) };
}

pub fn set_injection(mode: Inject) {
    INJECT.store(mode as u8, Ordering::Relaxed);
}

/// Seconds spent inside injected work so far, over all threads.
pub fn injected_s() -> f64 {
    INJECTED_NS.load(Ordering::Relaxed) as f64 * 1e-9
}

fn inject(mode: u8, eval: Duration) {
    let start = Instant::now();
    if mode == Inject::Spin as u8 {
        while start.elapsed() < eval / 10 {
            host::fma_chain(200);
        }
    } else {
        THRASH.with(|cell| {
            let (last, buffer) = &mut *cell.borrow_mut();
            if last.is_some_and(|t| t.elapsed() < THRASH_PERIOD) {
                return;
            }
            buffer.resize(THRASH_WORDS, 0);
            for line in buffer.chunks_exact_mut(8) {
                line[0] = line[0].wrapping_add(1);
            }
            std::hint::black_box(&buffer);
            *last = Some(Instant::now());
        });
    }
    // statistics only: the counter publishes no other data
    INJECTED_NS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// The benchmark's wrapper around a model hierarchy: every forward
/// evaluation first gives the host-speed pacer its turn on the calling
/// worker thread, and in the traced pass is also timed.
struct PacedFactory {
    inner: Arc<dyn LevelFactory + Send + Sync>,
    probe: Option<Arc<EvalProbe>>,
}

struct PacedProblem {
    inner: Box<dyn SamplingProblem>,
    level: usize,
    probe: Option<Arc<EvalProbe>>,
}

impl SamplingProblem for PacedProblem {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn log_density(&mut self, theta: &[f64]) -> f64 {
        host::pace();
        let injection = INJECT.load(Ordering::Relaxed);
        if self.probe.is_none() && injection == Inject::Off as u8 {
            return self.inner.log_density(theta);
        }
        let start = Instant::now();
        let value = self.inner.log_density(theta);
        let elapsed = start.elapsed();
        if let Some(probe) = &self.probe {
            // statistics only: the counters publish no other data
            probe.busy_ns[self.level].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
            probe.count[self.level].fetch_add(1, Ordering::Relaxed);
        }
        if injection != Inject::Off as u8 {
            inject(injection, elapsed);
        }
        value
    }

    fn qoi(&mut self, theta: &[f64]) -> Vec<f64> {
        self.inner.qoi(theta)
    }

    fn qoi_dim(&self) -> usize {
        self.inner.qoi_dim()
    }
}

impl LevelFactory for PacedFactory {
    fn n_levels(&self) -> usize {
        self.inner.n_levels()
    }

    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(PacedProblem {
            inner: self.inner.problem(level),
            level,
            probe: self.probe.clone(),
        })
    }

    fn proposal(&self, level: usize) -> Box<dyn uq_mcmc::Proposal> {
        self.inner.proposal(level)
    }

    fn subsampling_rate(&self, level: usize) -> usize {
        self.inner.subsampling_rate(level)
    }

    fn starting_point(&self, level: usize) -> Vec<f64> {
        self.inner.starting_point(level)
    }

    fn burn_in(&self, level: usize) -> usize {
        self.inner.burn_in(level)
    }
}

// ---------------------------------------------------------------------
// one repetition
// ---------------------------------------------------------------------

/// One serviced job of a `service_mix` repetition.
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub tenant: u64,
    /// Submit → observed `Completed`.
    pub tte_s: f64,
    /// Submit → first observed out of `Queued`.
    pub queue_wait_s: f64,
    /// The admission model's prediction at submit time.
    pub predicted_s: f64,
    pub snapshots: usize,
    pub serves: u64,
    pub digest: u64,
}

/// What one repetition did.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall seconds from the run call to the assembled report (makespan
    /// of the mix on `service_mix`).
    pub wall_s: f64,
    /// Process user+system seconds over the same interval.
    pub cpu_s: f64,
    /// Mean host slowdown over the interval (see `host::pace`); the
    /// reported times are `wall_s` and `cpu_s` divided by it.
    pub slowdown: f64,
    /// Peak resident memory during the repetition (filled by the runner).
    pub peak_rss_mb: f64,
    /// Operations attempted: jobs on `service_mix`, one run elsewhere.
    pub attempted: u64,
    /// One line per failed operation or failed output check.
    pub failures: Vec<String>,
    /// Digest of the statistical output (everything but timings).
    pub digest: u64,
    pub jobs: Vec<JobRecord>,
    /// Counters of the layers this repetition went through, by metric
    /// name. Read from the program's own reports and tracer.
    pub layers: Vec<(&'static str, f64)>,
}

impl Rep {
    /// Time-to-estimate in seconds on an undisturbed host.
    pub fn tte_s(&self) -> f64 {
        self.wall_s / self.slowdown
    }

    /// CPU seconds on an undisturbed host.
    pub fn norm_cpu_s(&self) -> f64 {
        self.cpu_s / self.slowdown
    }
}

struct Clock {
    wall: Instant,
    cpu: f64,
    pace: host::PaceMark,
}

impl Clock {
    fn start() -> Clock {
        Clock {
            pace: host::pace_mark(),
            cpu: host::cpu_seconds(),
            wall: Instant::now(),
        }
    }

    fn stop(&self, rep: &mut Rep) {
        rep.wall_s = self.wall.elapsed().as_secs_f64();
        rep.cpu_s = host::cpu_seconds() - self.cpu;
        rep.slowdown = self.pace.slowdown();
    }
}

/// `n_samples == N_l` on every level and every estimate finite.
fn check_levels(levels: &[ParallelLevelReport], n: &[usize], failures: &mut Vec<String>) {
    if levels.len() != n.len() {
        failures.push(format!(
            "report has {} levels, expected {}",
            levels.len(),
            n.len()
        ));
        return;
    }
    for (lvl, &want) in levels.iter().zip(n) {
        if lvl.n_samples != want {
            failures.push(format!(
                "level {}: {} samples, expected {want}",
                lvl.level, lvl.n_samples
            ));
        }
        let finite = |v: &[f64]| !v.is_empty() && v.iter().all(|x| x.is_finite());
        if !finite(&lvl.mean_correction) || !finite(&lvl.var_correction) {
            failures.push(format!("level {}: non-finite estimate", lvl.level));
        }
    }
}

fn runtime_layers(rt: &RuntimeReport, layers: &mut Vec<(&'static str, f64)>) {
    let ledger = &rt.phonebook.ledger;
    let hit_rate = if ledger.spec_launched == 0 {
        0.0
    } else {
        ledger.spec_hits as f64 / ledger.spec_launched as f64
    };
    layers.extend([
        ("runtime.polls", rt.runtime.polls as f64),
        ("runtime.wakeups", rt.runtime.wakeups as f64),
        ("runtime.steals", rt.runtime.steals as f64),
        ("runtime.dropped_sends", rt.runtime.dropped_sends as f64),
        ("phonebook.messages", rt.phonebook.messages as f64),
        ("phonebook.mean_batch", rt.phonebook.mean_batch()),
        ("phonebook.routed", rt.phonebook.routed as f64),
        ("ledger.serves", ledger.serves as f64),
        ("ledger.diverged_frac", ledger.diverged_fraction()),
        ("ledger.spec_launched", ledger.spec_launched as f64),
        ("ledger.spec_hit_rate", hit_rate),
    ]);
}

// ---------------------------------------------------------------------
// a prepared workload
// ---------------------------------------------------------------------

/// The service of `service_mix` and its on-disk job stores, both torn
/// down on drop.
struct MixService {
    service: Option<Service>,
    store_root: PathBuf,
}

impl Drop for MixService {
    fn drop(&mut self) {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
        host::remove_scratch(&self.store_root);
    }
}

/// Ordinals of the warm-up repetitions (set-up `k` uses `WARM_ORDINAL +
/// k`), apart from those of the full-size repetitions (0, 1, 2, …).
pub const WARM_ORDINAL: u64 = 1 << 32;

/// A workload after set-up: model hierarchy built, pool or service
/// started. [`Prepared::repetition`] runs its seeded work once.
pub struct Prepared {
    kind: Kind,
    seed: u64,
    shapes: Vec<Vec<usize>>,
    model: Model,
    factory: Arc<dyn LevelFactory + Send + Sync>,
    tracer: Tracer,
    probe: Option<Arc<EvalProbe>>,
    pool: Runtime,
    mix: Option<MixService>,
    /// A snapshot read back from a finished job store (traced
    /// `service_mix` only): the input of the checkpoint ladder rungs.
    pub last_snapshot: Option<RunSnapshot>,
}

impl Prepared {
    /// Build the model hierarchy and start the pool or service: the cold
    /// start a user pays before the first run. `quick` divides every
    /// `N_l` by ten; `traced` turns the program's tracer on and wraps the
    /// factory in the benchmark's evaluation timer.
    pub fn set_up(kind: Kind, seed: u64, quick: bool, traced: bool) -> Prepared {
        let shapes = kind
            .shapes()
            .into_iter()
            .map(|shape| {
                if quick {
                    shape.iter().map(|&n| (n / 10).max(1)).collect()
                } else {
                    shape
                }
            })
            .collect();
        // the build makes no forward evaluation: sample the host around it
        host::pace_now();
        let model = Model::build(kind);
        host::pace_now();
        let probe = traced.then(|| Arc::new(EvalProbe::default()));
        let factory: Arc<dyn LevelFactory + Send + Sync> = Arc::new(PacedFactory {
            inner: model.factory(),
            probe: probe.clone(),
        });
        let tracer = if traced {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        let workers = host::workers();
        let mix = (kind == Kind::ServiceMix).then(|| {
            let store_root = host::scratch_dir("store");
            let mut config = ServiceConfig::new(&store_root);
            config.lanes = workers;
            config.pool_workers = workers;
            config.quantum = 50;
            let service = Service::start(config, &tracer);
            service.register_model("poisson", Arc::clone(&factory));
            MixService {
                service: Some(service),
                store_root,
            }
        });
        Prepared {
            kind,
            seed,
            shapes,
            model,
            factory,
            tracer,
            probe,
            pool: Runtime::new(workers),
            mix,
            last_snapshot: None,
        }
    }

    pub fn kind(&self) -> Kind {
        self.kind
    }

    pub fn probe(&self) -> Option<&EvalProbe> {
        self.probe.as_deref()
    }

    pub fn forward_at_reference(&self) -> Vec<Vec<f64>> {
        self.model.forward_at_reference()
    }

    /// Sampler seed of repetition `ordinal`, a function of `--seed` and
    /// the ordinal alone. The deterministic workloads repeat `--seed`
    /// itself, so their digests must repeat. The two runtime workloads are
    /// not bit-reproducible anyway, and their work depends on the seed
    /// (chains overshoot their quotas by a path-dependent amount: 12.5 k
    /// to 14.2 k level-0 evaluations on `poisson_runtime` across three
    /// seeds), so each of their repetitions has its own seed and the
    /// medians also average that variation out.
    fn rep_seed(&self, ordinal: u64) -> u64 {
        if self.kind.deterministic() {
            self.seed
        } else {
            tenant_seed(self.seed, ordinal)
        }
    }

    fn parallel_config(&self, shape: &[usize], seed: u64) -> ParallelConfig {
        let mut config = ParallelConfig::new(shape.to_vec(), self.kind.chains());
        config.seed = seed;
        config.load_balancing = false;
        config
    }

    fn runtime_config(&self, shape: &[usize], seed: u64, workers: usize) -> RuntimeConfig {
        RuntimeConfig {
            base: self.parallel_config(shape, seed),
            n_workers: workers,
            collector_shards: 1,
        }
    }

    /// Run the seeded work of repetition `ordinal` once and check its
    /// outputs.
    pub fn repetition(&mut self, scale: Scale, ordinal: u64) -> Rep {
        match self.kind {
            Kind::TsunamiSeq => self.sequential_rep(scale, ordinal),
            Kind::PoissonRuntime | Kind::RanksRuntime => {
                self.runtime_rep(scale, self.pool.n_workers(), ordinal)
            }
            Kind::PoissonNet => self.net_rep(scale),
            Kind::ServiceMix => self.mix_rep(scale),
        }
    }

    /// `run_sequential` at the workload's size: the whole of
    /// `tsunami_seq`, and the single-threaded reference for the others.
    pub fn sequential_rep(&mut self, scale: Scale, ordinal: u64) -> Rep {
        let n = scaled(&self.shapes[0], scale);
        let config = MlmcmcConfig::new(n.clone());
        let mut rng = StdRng::seed_from_u64(self.rep_seed(ordinal));
        let mut rep = Rep {
            attempted: 1,
            ..Rep::default()
        };
        let clock = Clock::start();
        let report = run_sequential(self.factory.as_ref(), &config, &mut rng);
        clock.stop(&mut rep);
        let levels: Vec<ParallelLevelReport> = report
            .levels
            .into_iter()
            .map(|l| ParallelLevelReport {
                level: l.level,
                n_samples: l.n_samples,
                mean_correction: l.mean_correction,
                var_correction: l.var_correction,
                evaluations: l.evaluations,
                mean_eval_ms: l.mean_eval_ms,
                theta_samples: Vec::new(),
                correction_pairs: Vec::new(),
            })
            .collect();
        check_levels(&levels, &n, &mut rep.failures);
        rep.digest = levels_digest(&levels);
        rep
    }

    /// `run_runtime` on the prepared pool with `workers` worker threads.
    pub fn runtime_rep(&mut self, scale: Scale, workers: usize, ordinal: u64) -> Rep {
        let n = scaled(&self.shapes[0], scale);
        let seed = self.rep_seed(ordinal);
        let config = self.runtime_config(&n, seed, workers);
        let mut rep = Rep {
            attempted: 1,
            ..Rep::default()
        };
        let clock = Clock::start();
        let rt = if workers == self.pool.n_workers() {
            run_runtime_on(&self.pool, self.factory.as_ref(), &config, &self.tracer)
        } else {
            run_runtime(self.factory.as_ref(), &config, &self.tracer)
        };
        clock.stop(&mut rep);
        check_levels(&rt.report.levels, &n, &mut rep.failures);
        if rt.preempted {
            rep.failures.push("run was preempted".to_string());
        }
        rep.digest = levels_digest(&rt.report.levels);
        runtime_layers(&rt, &mut rep.layers);
        rep
    }

    /// `run_parallel` (thread-per-rank, in-process channels) at the
    /// workload's size: the in-process reference of `poisson_net`.
    pub fn thread_rep(&mut self, scale: Scale) -> Rep {
        let n = scaled(&self.shapes[0], scale);
        let config = self.parallel_config(&n, self.seed);
        let mut rep = Rep {
            attempted: 1,
            ..Rep::default()
        };
        let clock = Clock::start();
        let report = run_parallel(self.factory.as_ref(), &config, &self.tracer);
        clock.stop(&mut rep);
        check_levels(&report.levels, &n, &mut rep.failures);
        rep.digest = levels_digest(&report.levels);
        rep
    }

    /// One driver and one worker over loopback TCP: bind an ephemeral
    /// port, rendezvous, run, join.
    fn net_rep(&mut self, scale: Scale) -> Rep {
        let n = scaled(&self.shapes[0], scale);
        let config = self.parallel_config(&n, self.seed);
        let counters = [
            Counter::NetFramesOut,
            Counter::NetBytesOut,
            Counter::Serves,
            Counter::SpecLaunched,
            Counter::SpecHits,
        ];
        let before = counters.map(|c| self.tracer.counter(c));
        let mut rep = Rep {
            attempted: 1,
            ..Rep::default()
        };
        let clock = Clock::start();
        let driver = NetDriver::bind("127.0.0.1:0").expect("bind a loopback port");
        let options = NetWorkerOptions {
            connect: driver.local_addr().to_string(),
            join: false,
            leave_at_barrier: None,
        };
        let worker_factory: Arc<dyn LevelFactory> = Arc::clone(&self.factory) as _;
        let worker_tracer = self.tracer.clone();
        let worker =
            std::thread::spawn(move || run_net_worker(worker_factory, &options, &worker_tracer));
        let net = driver.run(
            Arc::clone(&self.factory) as _,
            &config,
            &NetDriverOptions {
                workers: 1,
                every: 0,
                store: None,
                config_hash: 0,
            },
            &self.tracer,
        );
        let worker_report = worker.join().expect("net worker thread panicked");
        clock.stop(&mut rep);
        check_levels(&net.report.levels, &n, &mut rep.failures);
        if worker_report.ranks.len() != 2 || worker_report.retired {
            rep.failures.push(format!(
                "worker hosted ranks {:?} (retired: {}), expected both controllers",
                worker_report.ranks, worker_report.retired
            ));
        }
        if net.migrations != 0 {
            rep.failures
                .push(format!("{} unexpected rank migrations", net.migrations));
        }
        rep.digest = levels_digest(&net.report.levels);
        let after = counters.map(|c| self.tracer.counter(c));
        let [frames, bytes, serves, launched, hits]: [f64; 5] =
            std::array::from_fn(|i| (after[i] - before[i]) as f64);
        rep.layers.extend([
            ("net.frames_out", frames),
            ("net.bytes_out", bytes),
            (
                "net.bytes_per_serve",
                if serves > 0.0 { bytes / serves } else { 0.0 },
            ),
            ("ledger.serves", serves),
            ("ledger.spec_launched", launched),
            (
                "ledger.spec_hit_rate",
                if launched > 0.0 { hits / launched } else { 0.0 },
            ),
            ("runtime.dropped_sends", net.dropped_sends as f64),
        ]);
        rep
    }

    /// The generated job list of one mix: four jobs per tenant, three
    /// shapes in rotation, each job with its own base seed.
    fn job_mix(&self, scale: Scale) -> Vec<JobSpec> {
        (0..JOBS_PER_MIX)
            .map(|i| {
                let tenant = i % TENANT_PRIORITY.len();
                let shape = &self.shapes[(i + i / TENANT_PRIORITY.len()) % self.shapes.len()];
                let job_seed = tenant_seed(self.seed, 1_000 + i as u64);
                JobSpec {
                    tenant: 1 + tenant as u64,
                    priority: TENANT_PRIORITY[tenant],
                    model: "poisson".to_string(),
                    config: self.runtime_config(&scaled(shape, scale), job_seed, 1),
                    deadline: 0.0,
                }
            })
            .collect()
    }

    /// Closed loop: one generator (this thread) keeps one job in flight
    /// per tenant and submits a tenant's next job when it sees the
    /// previous one `Completed`, polling statuses every millisecond.
    fn mix_rep(&mut self, scale: Scale) -> Rep {
        let specs = self.job_mix(scale);
        let traced = self.tracer.is_enabled();
        let mix = self.mix.as_ref().expect("service_mix has a service");
        let service = mix.service.as_ref().expect("service is running");
        let rejected_before = self.tracer.counter(Counter::JobsRejected);

        struct InFlight {
            id: JobId,
            index: usize,
            submitted: Instant,
            predicted_s: f64,
            left_queue: Option<f64>,
        }
        let n_tenants = TENANT_PRIORITY.len();
        let mut next_index: Vec<usize> = (0..n_tenants).collect();
        let mut in_flight: Vec<Option<InFlight>> = (0..n_tenants).map(|_| None).collect();
        let mut records: Vec<Option<JobRecord>> = vec![None; specs.len()];
        let mut rep = Rep {
            attempted: specs.len() as u64,
            ..Rep::default()
        };
        let mut ids: Vec<JobId> = Vec::with_capacity(specs.len());
        let deadline = Instant::now() + Duration::from_secs(120);

        let clock = Clock::start();
        loop {
            let mut busy = false;
            for tenant in 0..n_tenants {
                if let Some(job) = &mut in_flight[tenant] {
                    let status = service.status(job.id).expect("submitted job has a status");
                    if status.state != JobState::Queued && job.left_queue.is_none() {
                        job.left_queue = Some(job.submitted.elapsed().as_secs_f64());
                    }
                    match status.state {
                        JobState::Queued | JobState::Running => busy = true,
                        JobState::Completed => {
                            let tte_s = job.submitted.elapsed().as_secs_f64();
                            if !status.estimate.iter().all(|x| x.is_finite())
                                || status.estimate.is_empty()
                            {
                                rep.failures
                                    .push(format!("job {}: non-finite estimate", job.index));
                            }
                            records[job.index] = Some(JobRecord {
                                tenant: status.tenant,
                                tte_s,
                                queue_wait_s: job.left_queue.unwrap_or(tte_s),
                                predicted_s: job.predicted_s,
                                snapshots: status.snapshots,
                                serves: status.serves,
                                digest: status.digest,
                            });
                            in_flight[tenant] = None;
                        }
                        JobState::Cancelled | JobState::Preempted => {
                            rep.failures.push(format!(
                                "job {} ended {:?} unexpectedly",
                                job.index, status.state
                            ));
                            in_flight[tenant] = None;
                        }
                    }
                }
                if in_flight[tenant].is_none() && next_index[tenant] < specs.len() {
                    let index = next_index[tenant];
                    next_index[tenant] += n_tenants;
                    let submitted = Instant::now();
                    match service.submit(specs[index].clone()) {
                        Ok((id, predicted_s)) => {
                            ids.push(id);
                            in_flight[tenant] = Some(InFlight {
                                id,
                                index,
                                submitted,
                                predicted_s,
                                left_queue: None,
                            });
                            busy = true;
                        }
                        Err(reason) => {
                            rep.failures.push(format!("job {index} rejected: {reason}"));
                        }
                    }
                }
            }
            if !busy {
                break;
            }
            if Instant::now() > deadline {
                rep.failures.push("mix did not drain in 120 s".to_string());
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        clock.stop(&mut rep);

        rep.jobs = records.into_iter().flatten().collect();
        let mut digests = Vec::with_capacity(rep.jobs.len() * 8);
        for job in &rep.jobs {
            digests.extend_from_slice(&job.digest.to_le_bytes());
        }
        rep.digest = fnv1a(&digests);

        // bookkeeping outside the timed interval: measure the stores, keep
        // one snapshot for the checkpoint rungs, then delete the stores so
        // ten mixes do not pile up on disk
        let store_bytes: u64 = ids
            .iter()
            .map(|id| dir_bytes(&mix.store_root.join(format!("job-{id}"))))
            .sum();
        let snapshot = ids.last().filter(|_| traced).and_then(|id| {
            RunStore::open(mix.store_root.join(format!("job-{id}")))
                .ok()
                .and_then(|store| store.latest_snapshot(None).ok().flatten())
                .map(|(_, snapshot)| snapshot)
        });
        for id in &ids {
            let _ = std::fs::remove_dir_all(mix.store_root.join(format!("job-{id}")));
        }
        let rejected = self.tracer.counter(Counter::JobsRejected) - rejected_before;
        if snapshot.is_some() {
            self.last_snapshot = snapshot;
        }
        // serves a tenant received per second it had a job in the system:
        // what the fair-share policy hands out under contention
        let serve_rate = |tenant: u64| -> f64 {
            let (serves, seconds) = rep
                .jobs
                .iter()
                .filter(|j| j.tenant == tenant)
                .fold((0.0, 0.0), |(s, t), j| (s + j.serves as f64, t + j.tte_s));
            if seconds > 0.0 {
                serves / seconds
            } else {
                0.0
            }
        };
        let lo = serve_rate(1);
        rep.layers.extend([
            ("service.jobs_per_s", rep.jobs.len() as f64 / rep.wall_s),
            (
                "service.snapshots",
                rep.jobs.iter().map(|j| j.snapshots as f64).sum(),
            ),
            ("service.store_bytes", store_bytes as f64),
            (
                "service.share_hi_over_lo",
                if lo > 0.0 { serve_rate(4) / lo } else { 0.0 },
            ),
            ("service.jobs_rejected", rejected as f64),
            (
                "ledger.serves",
                rep.jobs.iter().map(|j| j.serves as f64).sum(),
            ),
        ]);
        rep
    }

    /// Cross-checks that need reference runs, made once per process
    /// outside every timed interval. Returns the digest every full-size
    /// repetition must reproduce (where one exists), the time of the
    /// in-process reference run (`poisson_net`), and failures.
    pub fn verify(&mut self, warm: &Rep) -> Verified {
        let mut out = Verified::default();
        match self.kind {
            Kind::PoissonNet => {
                // same config through the thread scheduler and through the
                // cooperative runtime on one worker: three backends, one
                // digest
                let thread = self.thread_rep(Scale::Full);
                let runtime = self.runtime_rep(Scale::Full, 1, 0);
                out.inproc_tte_s = Some(thread.tte_s());
                out.failures.extend(thread.failures);
                out.failures.extend(runtime.failures);
                if thread.digest != runtime.digest {
                    out.failures.push(format!(
                        "run_parallel digest {:#x} != run_runtime digest {:#x}",
                        thread.digest, runtime.digest
                    ));
                }
                out.expected_digest = Some(thread.digest);
            }
            Kind::ServiceMix => {
                // every warm-up job against the same config run standalone
                // at the tenant's seed
                let specs = self.job_mix(Scale::Warm);
                if warm.jobs.len() != specs.len() {
                    out.failures.push(format!(
                        "warm-up mix completed {} of {} jobs",
                        warm.jobs.len(),
                        specs.len()
                    ));
                    return out;
                }
                for (index, (spec, job)) in specs.iter().zip(&warm.jobs).enumerate() {
                    let mut config = spec.config.clone();
                    config.base.seed = tenant_seed(config.base.seed, spec.tenant);
                    let standalone =
                        run_runtime(self.factory.as_ref(), &config, &Tracer::disabled());
                    let expected = levels_digest(&standalone.report.levels);
                    if job.digest != expected {
                        out.failures.push(format!(
                            "warm-up job {index}: serviced digest {:#x} != standalone {expected:#x}",
                            job.digest
                        ));
                    }
                }
            }
            Kind::TsunamiSeq | Kind::PoissonRuntime | Kind::RanksRuntime => {}
        }
        out
    }
}

#[derive(Debug, Default)]
pub struct Verified {
    pub failures: Vec<String>,
    pub expected_digest: Option<u64>,
    /// Time-to-estimate of the same config through `run_parallel`.
    pub inproc_tte_s: Option<f64>,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_work_is_a_tenth_of_the_evaluation_or_one_rate_limited_sweep() {
        // the mode stays off, so no other test's thread adds to the counter
        let before = injected_s();
        let start = Instant::now();
        inject(Inject::Spin as u8, Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(2));
        let spun = injected_s() - before;
        assert!((0.002..0.2).contains(&spun), "spun {spun} s");

        inject(Inject::Thrash as u8, Duration::ZERO);
        let swept = THRASH.with(|cell| cell.borrow().0);
        assert!(swept.is_some());
        // a second sweep inside the period does not run
        inject(Inject::Thrash as u8, Duration::ZERO);
        assert_eq!(THRASH.with(|cell| cell.borrow().0), swept);
        assert_eq!(
            THRASH.with(|cell| cell.borrow().1.iter().step_by(8).copied().max()),
            Some(1)
        );
    }
}
