//! PR 6 headline suite: **bit-identical checkpoint/resume** pinned by
//! crash injection, under the sequential driver and the pool.
//!
//! Each `*_crash_resume_*` test is its own harness: the parent process
//! computes the uninterrupted reference run in-process, then re-execs
//! the test binary twice — once in the `crash` role (runs with
//! checkpointing and `abort()`s from the `on_snapshot` hook at a
//! randomized snapshot ordinal) and once in the `resume` role (picks up
//! the latest snapshot from the content-addressed store and runs to
//! completion, writing its digest to disk). The parent then compares
//! the resumed digest **byte-for-byte** against the uninterrupted
//! reference: estimator moments, recorded sample streams and correction
//! pairs, every `f64` as its bit pattern.
//!
//! The bit-parity regime matches `ledger_exactness.rs`: the
//! two-level tight-ridge hierarchy, one chain per level, load balancing
//! off, recording on, single worker. Two levels matter for checkpoint
//! *transparency* — with deeper hierarchies the quiesce pause can
//! reorder a mid-level rank's interleaving of own-chain steps and
//! nested serve legs, reassigning session substreams; with two levels
//! the serving chains are base chains, so a pause cannot move any
//! serve off its substream (DESIGN.md §7).
//!
//! The quiesce-barrier tests check invariance: checkpointing on vs off
//! is bit-identical on the deterministic schedule, and statistically
//! inert on a multi-worker schedule where in-flight serves are drained
//! at every barrier.

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use uq_mlmcmc::estimator::{run_sequential_ckpt, CheckpointSpec};
use uq_mlmcmc::store::{fnv1a, Backend};
use uq_mlmcmc::{MlmcmcConfig, MlmcmcReport, RunSnapshot, RunStore};
use uq_parallel::scheduler::ParallelLevelReport;
use uq_parallel::{
    net_worker, run_net_worker, run_parallel, run_runtime, NetDriver, NetDriverOptions,
    NetWorkerOptions, ParallelCheckpoint, ParallelConfig, Placement, Run, Runtime, RuntimeConfig,
    RuntimeReport, Tracer,
};

#[path = "common/reexec.rs"]
mod reexec;
#[path = "common/ridge.rs"]
mod ridge;
use reexec::{expect_success, printed, spawn_self};
use ridge::{Ridge, COARSE_MEAN, FINE_MEAN};

// ---------------------------------------------------------------------
// crash-injection harness (child-process re-exec)
// ---------------------------------------------------------------------

const ROLE_ENV: &str = "UQ_CKPT_ROLE";
const DIR_ENV: &str = "UQ_CKPT_DIR";
const CRASH_ENV: &str = "UQ_CKPT_CRASH_AT";

/// The role this process plays for the current test, if re-exec'd.
fn role() -> Option<String> {
    env::var(ROLE_ENV).ok()
}

fn harness_dir() -> PathBuf {
    PathBuf::from(env::var(DIR_ENV).expect("crash-harness child without UQ_CKPT_DIR"))
}

fn crash_at() -> usize {
    env::var(CRASH_ENV)
        .expect("crash-harness child without UQ_CKPT_CRASH_AT")
        .parse()
        .expect("UQ_CKPT_CRASH_AT must be a snapshot ordinal")
}

/// Randomized kill point: which snapshot ordinal the crash child aborts
/// at. Derived from the parent pid so repeated suite runs exercise
/// different cuts while a single run stays reproducible end-to-end
/// (the same `k` is passed to both children through the environment).
fn kill_point(base: usize) -> usize {
    base + (std::process::id() as usize % 3)
}

/// Re-exec this test binary running exactly `test_name` in `role`.
fn spawn_role(test_name: &str, role: &str, dir: &Path, crash_at: usize) -> std::process::Child {
    let dir = dir.to_str().expect("harness dir is UTF-8");
    let env = [
        (ROLE_ENV, role),
        (DIR_ENV, dir),
        (CRASH_ENV, &crash_at.to_string()),
    ];
    spawn_self(test_name, &env)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = env::temp_dir().join(format!("uq-ckpt-eq-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("cannot create harness dir");
    dir
}

/// Drive the full kill→resume cycle for one backend test and compare
/// the resumed run's digest against the reference.
fn run_crash_cycle(test_name: &str, tag: &str, base_kill: usize, digest: &str) {
    let dir = fresh_dir(tag);
    let k = kill_point(base_kill);

    let crash = spawn_role(test_name, "crash", &dir, k)
        .wait_with_output()
        .expect("wait for crash child");
    assert!(
        !crash.status.success(),
        "crash child must die at snapshot {k}, got: {}",
        printed(&crash)
    );
    let store = RunStore::open(dir.join("store")).expect("store must survive the crash");
    assert!(
        store
            .latest_snapshot(None)
            .expect("manifest must stay readable after the crash")
            .is_some(),
        "crashed run must have persisted at least one snapshot"
    );

    expect_success(spawn_role(test_name, "resume", &dir, k), "resume child");

    let resumed_digest = fs::read_to_string(dir.join("digest.txt")).expect("resume digest");
    assert_eq!(
        resumed_digest, digest,
        "kill at snapshot {k} → resume must reproduce the uninterrupted digest bit-for-bit"
    );
    let _ = fs::remove_dir_all(&dir);
}

fn write_digest(dir: &Path, digest: &str) {
    fs::write(dir.join("digest.txt"), digest).expect("write digest");
}

// ---------------------------------------------------------------------
// digests (logical state only; eval counters and timing are excluded
// for the parallel backends, where a resumed run's counters
// legitimately restart)
// ---------------------------------------------------------------------

fn push_bits(s: &mut String, tag: &str, v: &[f64]) {
    s.push_str(tag);
    for x in v {
        s.push_str(&format!(" {:016x}", x.to_bits()));
    }
    s.push('\n');
}

fn push_pairs(s: &mut String, pairs: &[(Vec<f64>, Vec<f64>)]) {
    for (c, f) in pairs {
        push_bits(s, "pair_coarse", c);
        push_bits(s, "pair_fine", f);
    }
}

fn sequential_digest(report: &MlmcmcReport) -> String {
    let mut s = String::new();
    for l in &report.levels {
        s.push_str(&format!(
            "level {} n {} evals {} acc {:016x} iact {:016x}\n",
            l.level,
            l.n_samples,
            l.evaluations,
            l.acceptance_rate.to_bits(),
            l.iact.to_bits()
        ));
        push_bits(&mut s, "mean", &l.mean_correction);
        push_bits(&mut s, "var", &l.var_correction);
        for t in &l.theta_samples {
            push_bits(&mut s, "theta", t);
        }
        for q in &l.qoi_samples {
            push_bits(&mut s, "qoi", q);
        }
        push_pairs(&mut s, &l.correction_pairs);
    }
    s
}

fn parallel_digest(levels: &[ParallelLevelReport]) -> String {
    let mut s = String::new();
    for l in levels {
        s.push_str(&format!("level {} n {}\n", l.level, l.n_samples));
        push_bits(&mut s, "mean", &l.mean_correction);
        push_bits(&mut s, "var", &l.var_correction);
        for t in &l.theta_samples {
            push_bits(&mut s, "theta", t);
        }
        push_pairs(&mut s, &l.correction_pairs);
    }
    s
}

// ---------------------------------------------------------------------
// sequential driver
// ---------------------------------------------------------------------

const SEQ_SEED: u64 = 9001;
const SEQ_EVERY: usize = 70;

fn sequential_config() -> MlmcmcConfig {
    let mut config = MlmcmcConfig::new(vec![400, 200]);
    config.burn_in = vec![30, 20];
    config.record_samples = true;
    config
}

fn sequential_hash() -> u64 {
    fnv1a(b"checkpoint_equivalence sequential ridge v1")
}

#[test]
fn sequential_crash_resume_is_bit_identical() {
    match role().as_deref() {
        Some("crash") => {
            let store = RunStore::open(harness_dir().join("store")).expect("open store");
            let k = crash_at();
            let hook = move |n: usize, _hash: &str| {
                if n == k {
                    std::process::abort();
                }
            };
            let ckpt = CheckpointSpec {
                store: &store,
                config_hash: sequential_hash(),
                every: SEQ_EVERY,
                on_snapshot: Some(&hook),
            };
            run_sequential_ckpt(&Ridge, &sequential_config(), SEQ_SEED, Some(&ckpt), None);
            unreachable!("crash child must abort before the run completes");
        }
        Some("resume") => {
            let dir = harness_dir();
            let store = RunStore::open(dir.join("store")).expect("open store");
            let (_, snap) = store
                .latest_snapshot(Some(sequential_hash()))
                .expect("manifest readable")
                .expect("crashed run left a snapshot");
            let report =
                run_sequential_ckpt(&Ridge, &sequential_config(), SEQ_SEED, None, Some(&snap));
            write_digest(&dir, &sequential_digest(&report));
        }
        _ => {
            let reference = run_sequential_ckpt(&Ridge, &sequential_config(), SEQ_SEED, None, None);
            run_crash_cycle(
                "sequential_crash_resume_is_bit_identical",
                "seq",
                1,
                &sequential_digest(&reference),
            );
        }
    }
}

// ---------------------------------------------------------------------
// `run_parallel`'s layout: one collector per level, a pool as wide as
// the host
// ---------------------------------------------------------------------

const THREAD_SEED: u64 = 33;
const THREAD_EVERY: usize = 40;

fn thread_config() -> ParallelConfig {
    let mut config = ParallelConfig::new(vec![300, 500], vec![1, 1]);
    config.burn_in = vec![30, 20];
    config.seed = THREAD_SEED;
    config.load_balancing = false;
    config.record_samples = true;
    config
}

/// `thread_config()` as `run_parallel` lays it out. The pool's width
/// does not show in this regime (`net_conformance` pins that), so two
/// workers stand for the host's.
fn thread_layout() -> RuntimeConfig {
    RuntimeConfig {
        base: thread_config(),
        n_workers: 2,
        collector_shards: 1,
    }
}

/// Where [`ridge_on`] places a run: a fresh pool of `config.n_workers`
/// threads, or a driver and two workers on an OS-assigned loopback
/// port, each on a one-worker pool.
#[derive(Clone, Copy, Debug)]
enum Where {
    Pool,
    Net,
}

fn ridge_on(
    place: Where,
    config: &RuntimeConfig,
    checkpoint: Option<&ParallelCheckpoint<'_>>,
    resume: Option<&RunSnapshot>,
) -> RuntimeReport {
    let off = Tracer::disabled();
    let run = Run::new(&Ridge, config, &off, checkpoint, resume);
    let Where::Net = place else {
        let pool = Runtime::new(config.n_workers);
        return run.on(Placement::Pool(&pool)).expect("a live run");
    };
    let driver = NetDriver::bind("127.0.0.1:0").expect("bind loopback");
    let worker = NetWorkerOptions {
        connect: driver.local_addr().to_string(),
        join: false,
        leave_at_barrier: None,
    };
    let (runtime, workers) = (&Runtime::new(1), 2);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| net_worker(&Runtime::new(1), &Ridge, &worker, &off));
        }
        let placement = Placement::Net {
            runtime,
            driver,
            workers,
        };
        run.on(placement).expect("a live run")
    })
}

/// The pool crash test `test_name` in its three roles: the crash child
/// checkpoints `config` every `every` top-level corrections and aborts
/// at the drawn snapshot ordinal; the resume child continues from the
/// latest snapshot (once `check` has seen it) and leaves its digest; the
/// parent compares that with `reference`'s.
fn pool_crash_cycle(
    test_name: &str,
    base_kill: usize,
    every: usize,
    config: &RuntimeConfig,
    check: impl Fn(&RunSnapshot),
    reference: impl FnOnce() -> String,
) {
    let hash = fnv1a(test_name.as_bytes());
    match role().as_deref() {
        Some("crash") => {
            let store = RunStore::open(harness_dir().join("store")).expect("open store");
            let k = crash_at();
            let snaps = AtomicUsize::new(0);
            let hook = move |_done: usize, _hash: &str| {
                if snaps.fetch_add(1, Ordering::SeqCst) + 1 == k {
                    std::process::abort();
                }
            };
            let ckpt = ParallelCheckpoint {
                store: &store,
                config_hash: hash,
                every,
                on_snapshot: Some(&hook),
                stop: None,
            };
            ridge_on(Where::Pool, config, Some(&ckpt), None);
            unreachable!("crash child must abort before the run completes");
        }
        Some("resume") => {
            let dir = harness_dir();
            let store = RunStore::open(dir.join("store")).expect("open store");
            let (_, snap) = store
                .latest_snapshot(Some(hash))
                .expect("manifest readable")
                .expect("crashed run left a snapshot");
            check(&snap);
            let rt = ridge_on(Where::Pool, config, None, Some(&snap));
            write_digest(&dir, &parallel_digest(&rt.report.levels));
        }
        _ => run_crash_cycle(test_name, test_name, base_kill, &reference()),
    }
}

#[test]
fn thread_crash_resume_is_bit_identical() {
    pool_crash_cycle(
        "thread_crash_resume_is_bit_identical",
        1,
        THREAD_EVERY,
        &thread_layout(),
        |_| {},
        || {
            let reference = run_parallel(&Ridge, &thread_config(), &Tracer::disabled());
            parallel_digest(&reference.levels)
        },
    );
}

/// One stamp, and the layout rungs decide: a cut written by a net run —
/// a driver and two worker pools — resumes in one process to the
/// uninterrupted digest; what no parallel layout fits is refused by the
/// rung it fails.
#[test]
fn a_net_written_cut_resumes_in_process_and_a_misfit_is_refused_by_its_rung() {
    let dir = fresh_dir("net-cut");
    let store = Arc::new(RunStore::open(dir.join("store")).expect("open store"));
    let opts = NetDriverOptions {
        workers: 2,
        every: THREAD_EVERY,
        store: Some(Arc::clone(&store)),
        config_hash: 20,
    };
    let driver = NetDriver::bind("127.0.0.1:0").expect("bind loopback");
    let worker = NetWorkerOptions {
        connect: driver.local_addr().to_string(),
        join: false,
        leave_at_barrier: None,
    };
    let off = Tracer::disabled();
    let net = std::thread::scope(|scope| {
        scope.spawn(|| run_net_worker(Arc::new(Ridge), &worker, &off));
        scope.spawn(|| run_net_worker(Arc::new(Ridge), &worker, &off));
        driver.run(Arc::new(Ridge), &thread_config(), &opts, &off)
    });
    let reference = parallel_digest(&run_parallel(&Ridge, &thread_config(), &off).levels);
    assert_eq!(parallel_digest(&net.report.levels), reference);

    // a cut from the middle of the run
    let records = store.manifest_records().expect("manifest readable");
    let snapshots = records.iter().filter(|r| r.get("kind") == Some("snapshot"));
    let hashes: Vec<&str> = snapshots.map(|r| r.get("hash").expect("hash")).collect();
    assert!(hashes.len() >= 4, "{} snapshots", hashes.len());
    let (cut, _) = store
        .get_snapshot(hashes[hashes.len() / 2])
        .expect("snapshot readable");
    assert_eq!(cut.backend, Backend::Runtime, "the one stamp");

    let resume = |config: &RuntimeConfig, snap: &RunSnapshot| {
        let run = || ridge_on(Where::Pool, config, None, Some(snap));
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .map(|rt| parallel_digest(&rt.report.levels))
            .map_err(|why| *why.downcast::<String>().expect("formatted panic message"))
    };
    assert_eq!(resume(&thread_layout(), &cut), Ok(reference));

    let mut sequential = cut.clone();
    sequential.backend = Backend::Sequential;
    let why = resume(&thread_layout(), &sequential).expect_err("not a parallel cut");
    assert!(why.contains("stamp is sequential"), "{why}");
    let mut short = cut.clone();
    short.collectors.pop();
    let why = resume(&thread_layout(), &short).expect_err("one collector for two levels");
    assert!(why.contains("collector count mismatch"), "{why}");
    let mut swapped = cut.clone();
    swapped.collectors.swap(0, 1);
    let why = resume(&thread_layout(), &swapped).expect_err("level 1's state in level 0's slot");
    assert!(why.contains("collector slots inconsistent"), "{why}");
    let _ = fs::remove_dir_all(&dir);
}

/// A run stopped at a barrier on one placement comes back `preempted`
/// with that barrier's snapshot in the store and resumes on the other to
/// the uninterrupted digest (over the socket, the workers' ranks from
/// their `Assign`).
#[test]
fn a_run_preempted_on_one_placement_resumes_on_the_other() {
    // one pool worker: barriers land where the schedule puts them
    let config = RuntimeConfig {
        n_workers: 1,
        ..thread_layout()
    };
    let reference = parallel_digest(&ridge_on(Where::Pool, &config, None, None).report.levels);
    for (written_on, resumed_on) in [(Where::Net, Where::Pool), (Where::Pool, Where::Net)] {
        let dir = fresh_dir(&format!("{written_on:?}-{resumed_on:?}"));
        let store = RunStore::open(dir.join("store")).expect("open store");
        let (barriers, stop) = (AtomicUsize::new(0), AtomicBool::new(false));
        let hook = |_done: usize, _hash: &str| {
            let second = barriers.fetch_add(1, Ordering::SeqCst) + 1 == 2;
            stop.store(second, Ordering::SeqCst);
        };
        let ckpt = ParallelCheckpoint {
            store: &store,
            config_hash: 22,
            every: THREAD_EVERY,
            on_snapshot: Some(&hook),
            stop: Some(&stop),
        };
        let parked = ridge_on(written_on, &config, Some(&ckpt), None);
        assert!(parked.preempted, "{written_on:?}: the stop was ignored");
        assert_eq!(barriers.load(Ordering::SeqCst), 2, "{written_on:?}");
        let cut = store.latest_snapshot(Some(22)).expect("manifest readable");
        let (_, cut) = cut.expect("the barrier's snapshot");
        assert!(cut.samples_done < 500, "a cut from the middle of the run");
        let resumed = ridge_on(resumed_on, &config, None, Some(&cut));
        let digest = parallel_digest(&resumed.report.levels);
        assert!(!resumed.preempted, "{resumed_on:?}");
        assert_eq!(digest, reference, "{written_on:?} → {resumed_on:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// cooperative runtime
// ---------------------------------------------------------------------

const RUNTIME_SEED: u64 = 21;
const RUNTIME_EVERY: usize = 25;

/// Deterministic single-worker runtime config on the ridge.
fn runtime_cfg() -> RuntimeConfig {
    let mut config = RuntimeConfig::new(vec![300, 500], vec![1, 1]);
    config.base.burn_in = vec![30, 20];
    config.base.seed = RUNTIME_SEED;
    config.base.load_balancing = false;
    config.base.record_samples = true;
    config.n_workers = 1;
    config.collector_shards = 1;
    config
}

#[test]
fn runtime_crash_resume_is_bit_identical() {
    pool_crash_cycle(
        "runtime_crash_resume_is_bit_identical",
        4,
        RUNTIME_EVERY,
        &runtime_cfg(),
        |snap| assert!(snap.ledger.is_some(), "a cut carries the ledger"),
        || {
            let reference = run_runtime(&Ridge, &runtime_cfg(), &Tracer::disabled());
            parallel_digest(&reference.report.levels)
        },
    );
}

// ---------------------------------------------------------------------
// quiesce-barrier invariance (satellite): checkpoints must not move a
// bit on the deterministic schedule, and must stay statistically inert
// when in-flight serves are drained at every barrier
// ---------------------------------------------------------------------

#[test]
fn runtime_checkpoint_on_off_is_bit_identical_on_the_ridge() {
    let dir = fresh_dir("quiesce-onoff");
    let store = RunStore::open(dir.join("store")).expect("open store");
    let snaps = AtomicUsize::new(0);
    let hook = |_done: usize, _hash: &str| {
        snaps.fetch_add(1, Ordering::SeqCst);
    };
    let ckpt = ParallelCheckpoint {
        store: &store,
        config_hash: fnv1a(b"quiesce on/off ridge"),
        every: 40,
        on_snapshot: Some(&hook),
        stop: None,
    };
    let with = ridge_on(Where::Pool, &runtime_cfg(), Some(&ckpt), None);
    let without = run_runtime(&Ridge, &runtime_cfg(), &Tracer::disabled());
    assert!(
        snaps.load(Ordering::SeqCst) > 0,
        "the checkpointed run must actually quiesce"
    );
    assert_eq!(
        parallel_digest(&with.report.levels),
        parallel_digest(&without.report.levels),
        "quiesce barriers must not move one bit of the recorded streams"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_barrier_preserves_the_ridge_statistics() {
    // multi-worker schedule: barriers land while serves are genuinely
    // in flight; drained at each barrier, they must leave the
    // tight-ridge correction mean exactly on FINE − COARSE
    let dir = fresh_dir("quiesce-stats");
    let store = RunStore::open(dir.join("store")).expect("open store");
    let mut config = RuntimeConfig::new(vec![30_000, 15_000], vec![2, 2]);
    config.base.burn_in = vec![1_000, 500];
    config.base.seed = 4242;
    config.base.load_balancing = false;
    config.base.record_samples = false;
    config.n_workers = 4;
    config.collector_shards = 1;
    let snaps = AtomicUsize::new(0);
    let hook = |_done: usize, _hash: &str| {
        snaps.fetch_add(1, Ordering::SeqCst);
    };
    let ckpt = ParallelCheckpoint {
        store: &store,
        config_hash: fnv1a(b"quiesce statistics ridge"),
        every: 1_000,
        on_snapshot: Some(&hook),
        stop: None,
    };
    let rt = ridge_on(Where::Pool, &config, Some(&ckpt), None);
    assert!(snaps.load(Ordering::SeqCst) > 0, "barriers must fire");
    let corr = rt.report.levels[1].mean_correction[0];
    assert!(
        (corr - (FINE_MEAN - COARSE_MEAN)).abs() < 0.03,
        "checkpoint barriers must be statistically inert on the ridge: corr = {corr}"
    );
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// checkpoint under multi-tenancy (PR 10): the quiesce barrier with two
// active tenants persists a resume point for each, and each resumes
// independently, bit-identically
// ---------------------------------------------------------------------

#[test]
fn two_tenant_service_snapshots_both_and_resumes_each_independently() {
    use std::time::{Duration, Instant};
    use uq_mlmcmc::ledger::tenant_seed;
    use uq_parallel::{levels_digest, Counter, JobSpec, JobState, Service, ServiceConfig};

    let mk = |n0: usize, n1: usize| {
        let mut config = RuntimeConfig::new(vec![n0, n1], vec![1, 1]);
        config.base.burn_in = vec![30, 20];
        config.base.seed = RUNTIME_SEED;
        config.base.load_balancing = false;
        config.base.record_samples = true;
        config.n_workers = 1;
        config.collector_shards = 1;
        config
    };
    // different shapes so the two tenants' barriers interleave freely
    let cfg_a = mk(1_500, 500);
    let cfg_b = mk(2_000, 700);
    let reference = |cfg: &RuntimeConfig, tenant: u64| {
        let mut at_seed = cfg.clone();
        at_seed.base.seed = tenant_seed(cfg.base.seed, tenant);
        levels_digest(
            &run_runtime(&Ridge, &at_seed, &Tracer::disabled())
                .report
                .levels,
        )
    };
    let ref_a = reference(&cfg_a, 1);
    let ref_b = reference(&cfg_b, 2);
    assert_ne!(ref_a, ref_b, "tenants must live in disjoint namespaces");

    let dir = fresh_dir("two-tenant-svc");
    let tracer = Tracer::new();
    let mut svc = ServiceConfig::new(dir.join("stores"));
    svc.lanes = 2;
    svc.pool_workers = 2;
    svc.quantum = 5; // frequent barriers: the preempt lands early
    let service = Service::start(svc, &tracer);
    service.register_model("ridge", std::sync::Arc::new(Ridge));

    let job = |tenant: u64, cfg: &RuntimeConfig| JobSpec {
        tenant,
        priority: 1.0,
        model: "ridge".to_string(),
        config: cfg.clone(),
        deadline: 0.0,
    };
    let (a, _) = service.submit(job(1, &cfg_a)).expect("admit tenant 1");
    let (b, _) = service.submit(job(2, &cfg_b)).expect("admit tenant 2");

    // both tenants are live on the pool; wait until each has persisted
    // at least one barrier cut, then preempt both
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let sa = service.status(a).expect("job a exists");
        let sb = service.status(b).expect("job b exists");
        if sa.snapshots >= 1 && sb.snapshots >= 1 {
            break;
        }
        for s in [&sa, &sb] {
            assert!(
                matches!(s.state, JobState::Queued | JobState::Running),
                "tenant {} reached {:?} before the shared cut",
                s.tenant,
                s.state
            );
        }
        assert!(Instant::now() < deadline, "barrier cuts never materialized");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(service.preempt(a), "tenant 1 must be running to preempt");
    assert!(service.preempt(b), "tenant 2 must be running to preempt");

    let parked_a = service.wait(a);
    let parked_b = service.wait(b);
    for parked in [&parked_a, &parked_b] {
        assert_eq!(
            parked.state,
            JobState::Preempted,
            "tenant {} did not park at its barrier",
            parked.tenant
        );
        assert!(
            parked.snapshots >= 1,
            "tenant {} preempted without a resume point",
            parked.tenant
        );
    }
    assert_eq!(tracer.counter(Counter::JobsPreempted), 2);

    // resume tenant 1 alone: it must complete bit-identically while
    // tenant 2 stays parked, untouched
    assert!(service.resume(a));
    let done_a = service.wait(a);
    assert_eq!(done_a.state, JobState::Completed);
    assert_eq!(
        done_a.digest, ref_a,
        "tenant 1 resume through the shared-cut snapshot changed the bits"
    );
    assert_eq!(
        service.status(b).expect("job b exists").state,
        JobState::Preempted,
        "resuming tenant 1 must not disturb tenant 2's parked state"
    );

    // now tenant 2, independently
    assert!(service.resume(b));
    let done_b = service.wait(b);
    assert_eq!(done_b.state, JobState::Completed);
    assert_eq!(
        done_b.digest, ref_b,
        "tenant 2 resume through the shared-cut snapshot changed the bits"
    );

    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
