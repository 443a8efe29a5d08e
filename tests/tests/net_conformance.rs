//! Cross-transport conformance suite for the **multi-process TCP
//! transport** (`uq_parallel::net`): running the exact same role
//! protocols over loopback sockets must be bit-for-bit identical to the
//! in-process backends — the transport is a delivery mechanism, never a
//! statistical actor.
//!
//! The pinned regime is the deterministic one from
//! `ledger_exactness.rs`: one chain per level, load balancing off,
//! per-sample recording on. There the thread
//! scheduler, the cooperative runtime and a net run split across N
//! processes all produce identical per-sample traces, so the digests
//! over (means, variances, thetas, correction pairs) must agree exactly.
//!
//! Elastic membership is exercised on the same fixture with
//! checkpointing on: one worker departs at the first barrier (the run
//! stops there and resumes with its ranks on the driver), a joiner is
//! admitted at the second (half the driver's controllers go back out), a
//! second joiner is never admitted and must be turned away cleanly — and
//! the run still completes with the correct estimate, its caller's
//! snapshot hook having seen every barrier once; a caller's `stop` at a
//! barrier where a change is due ends the run there. A peer that connects
//! and never says `Hello` must not hold a finished run, and a driver that
//! hangs up on a worker's `Bye` must not fail the worker. The last test
//! repeats the static and the elastic case with every worker a separate
//! OS process (the test binary re-executing itself, an OS-assigned port)
//! and counts the threads of a worker process hosting 64 controllers.
//!
//! Fixture: the tight-ridge two-level Gaussian hierarchy (fine
//! `N(0.35, 0.12²)`, coarse `N(0, 0.15²)`, `ρ = 2`).

use std::env;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use uq_mcmc::{Proposal, SamplingProblem};
use uq_mlmcmc::store::RunStore;
use uq_mlmcmc::LevelFactory;
use uq_parallel::scheduler::Msg;
use uq_parallel::{
    encode_frame, levels_digest, net_worker, run_net_worker, run_parallel, run_runtime, Counter,
    Frame, NetDriver, NetDriverOptions, NetReport, NetWorkerOptions, NetWorkerReport,
    ParallelCheckpoint, ParallelConfig, ParallelReport, Placement, Run, Runtime, RuntimeConfig,
    RuntimeReport, Tracer,
};

#[path = "common/reexec.rs"]
mod reexec;
#[path = "common/ridge.rs"]
mod ridge;
use reexec::{expect_success, spawn_self};
use ridge::{Ridge, FINE_MEAN, RHO};

/// The deterministic bit-parity regime on the ridge.
fn config(n0: usize, n1: usize, seed: u64) -> ParallelConfig {
    let mut config = ParallelConfig::new(vec![n0, n1], vec![1, 1]);
    config.burn_in = vec![30, 20];
    config.seed = seed;
    config.load_balancing = false;
    config.record_samples = true;
    config
}

/// Run the driver of a net universe on an OS-assigned loopback port;
/// `start_workers` gets the address to dial before the driver blocks in
/// its rendezvous.
fn run_driver<W>(
    config: &ParallelConfig,
    opts: &NetDriverOptions,
    tracer: &Tracer,
    start_workers: impl FnOnce(&str) -> W,
) -> (NetReport, W) {
    let driver = NetDriver::bind("127.0.0.1:0").expect("bind loopback");
    let workers = start_workers(&driver.local_addr().to_string());
    let report = driver.run(Arc::new(Ridge), config, opts, tracer);
    (report, workers)
}

/// Run a net universe on loopback: one driver plus one thread per
/// worker spec, all inside this process
/// (`net_worker_processes_match_in_process_and_migrate` covers separate
/// OS processes).
fn run_net(
    config: &ParallelConfig,
    opts: NetDriverOptions,
    workers: Vec<NetWorkerOptions>,
) -> (NetReport, Vec<NetWorkerReport>) {
    let (report, worker_handles) = run_driver(config, &opts, &Tracer::disabled(), |addr| {
        workers
            .into_iter()
            .map(|mut w| {
                w.connect = addr.to_string();
                std::thread::spawn(move || run_net_worker(Arc::new(Ridge), &w, &Tracer::disabled()))
            })
            .collect::<Vec<_>>()
    });
    let worker_reports = worker_handles
        .into_iter()
        .map(|h| h.join().expect("worker thread panicked"))
        .collect();
    (report, worker_reports)
}

fn worker() -> NetWorkerOptions {
    NetWorkerOptions {
        connect: String::new(),
        join: false,
        leave_at_barrier: None,
    }
}

/// The report of the in-process backends on `config`, their digests
/// asserted equal: they must agree before a net run means anything.
fn in_process(config: &ParallelConfig) -> ParallelReport {
    let thread = run_parallel(&Ridge, config, &Tracer::disabled());
    let mut rt_config = RuntimeConfig::new(
        config.samples_per_level.clone(),
        config.chains_per_level.clone(),
    );
    rt_config.base = config.clone();
    rt_config.n_workers = 1;
    rt_config.collector_shards = 1;
    let runtime_digest = levels_digest(
        &run_runtime(&Ridge, &rt_config, &Tracer::disabled())
            .report
            .levels,
    );
    assert_eq!(
        levels_digest(&thread.levels),
        runtime_digest,
        "in-process backends must agree before the net run means anything"
    );
    thread
}

fn in_process_digest(config: &ParallelConfig) -> u64 {
    levels_digest(&in_process(config).levels)
}

/// `(mean, variance)` per level, to the bit.
fn moment_bits(levels: &[uq_parallel::scheduler::ParallelLevelReport]) -> Vec<Vec<u64>> {
    levels
        .iter()
        .map(|l| {
            let moments = l.mean_correction.iter().chain(&l.var_correction);
            moments.map(|x| x.to_bits()).collect()
        })
        .collect()
}

/// One set of role machines on pools of three widths: the host's
/// (`run_parallel`), a single worker, and as many workers as ranks (every
/// rank runnable at once, work stealing live). In the deterministic
/// regime the pool's width must not show in the digest.
#[test]
fn executors_agree_on_the_deterministic_config() {
    let config = config(300, 100, 15_2026);
    let blocking = levels_digest(&run_parallel(&Ridge, &config, &Tracer::disabled()).levels);
    for n_workers in [1, config.n_ranks()] {
        let rt_config = RuntimeConfig {
            base: config.clone(),
            n_workers,
            collector_shards: 1,
        };
        let pool = run_runtime(&Ridge, &rt_config, &Tracer::disabled());
        assert_eq!(
            levels_digest(&pool.report.levels),
            blocking,
            "pool of {n_workers} worker(s) diverged from one thread per rank"
        );
    }
}

#[test]
fn net_two_workers_is_bit_identical_to_in_process() {
    // with `record_samples` on, every correction carries its recorded
    // triple over the wire and `theta_samples` / `correction_pairs`
    // arrive in the digest; off, a correction is `y` alone and the
    // digest covers the collectors' moments
    let mut moments = Vec::new();
    for record in [true, false] {
        let mut config = config(300, 100, 2_2026);
        config.record_samples = record;
        let thread_digest = in_process_digest(&config);

        let opts = NetDriverOptions {
            workers: 2,
            every: 0,
            store: None,
            config_hash: 0,
        };
        let (net, worker_reports) = run_net(&config, opts, vec![worker(), worker()]);
        assert_eq!(
            levels_digest(&net.report.levels),
            thread_digest,
            "net run over loopback TCP diverged from the in-process backends \
             (record_samples = {record})"
        );
        assert_eq!(net.report.n_ranks, config.n_ranks());
        assert_eq!(net.migrations, 0);
        let mut hosted: Vec<usize> = worker_reports
            .iter()
            .flat_map(|r| r.ranks.clone())
            .collect();
        hosted.sort_unstable();
        assert_eq!(hosted, vec![4, 5], "each worker hosts one controller rank");
        assert!(worker_reports.iter().all(|r| !r.retired));
        for level in &net.report.levels {
            assert_eq!(
                level.theta_samples.len(),
                if record { level.n_samples } else { 0 }
            );
        }
        assert_eq!(net.report.levels[1].correction_pairs.is_empty(), !record);
        moments.push(moment_bits(&net.report.levels));
    }
    assert_eq!(
        moments[0], moments[1],
        "recording must not move the collectors' moments"
    );
}

/// One worker departs at the first checkpoint barrier, its rank is
/// re-hosted on the driver from the barrier's snapshot. The leaver's
/// last pre-pause corrections are still on the wire when it quiesces
/// (the `CheckpointFlush` behind them is what the collector waits for),
/// so this is the path where a dropped or re-ordered correction would
/// show: the run must stay bit-identical to the in-process backends,
/// with the recorded triple travelling and without.
#[test]
fn net_elastic_leave_is_bit_identical_with_and_without_recording() {
    for record in [true, false] {
        let dir =
            std::env::temp_dir().join(format!("uq-net-leave-{}-{record}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(RunStore::open(&dir).expect("open store"));
        let mut config = config(600, 120, 11_2026);
        config.record_samples = record;
        let reference = in_process(&config);
        let expected = levels_digest(&reference.levels);
        let opts = NetDriverOptions {
            workers: 2,
            every: 25,
            store: Some(store),
            config_hash: 0x14_e37,
        };
        let mut leaver = worker();
        leaver.leave_at_barrier = Some(1);
        let (net, worker_reports) = run_net(&config, opts, vec![leaver, worker()]);
        assert_eq!(net.migrations, 1, "the leaver's one rank is re-hosted");
        assert!(worker_reports[0].retired && !worker_reports[1].retired);
        assert_eq!(
            levels_digest(&net.report.levels),
            expected,
            "elastic leave diverged from the in-process backends (record_samples = {record})"
        );
        // no evaluation is lost with the move: a level's burn-in, its
        // quota and the subsampled steps that serve the level above are a
        // floor under any complete run's count (how far a run overshoots
        // it depends on timing, so the two counts do not bound each other)
        let floor = |l: usize| config.burn_in[l] + config.samples_per_level[l];
        for (l, floors) in [floor(0) + RHO * floor(1), floor(1)].iter().enumerate() {
            for (run, levels) in [
                ("net", &net.report.levels),
                ("in-process", &reference.levels),
            ] {
                let evals = levels[l].evaluations;
                assert!(evals >= *floors, "{run}: {evals} level-{l} evaluations");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn net_elastic_leave_and_join_completes_with_correct_estimate() {
    let dir = std::env::temp_dir().join(format!("uq-net-elastic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(RunStore::open(&dir).expect("open store"));

    let config = config(900, 150, 7_2026);
    let opts = NetDriverOptions {
        workers: 2,
        every: 25,
        store: Some(store),
        config_hash: 0x9_e37,
    };
    // worker 0 departs at the first checkpoint barrier; its rank is
    // re-hosted on the driver, which makes it donatable to the joiner
    // at the second barrier. The late joiner never gets a donation
    // (the driver hosts nothing after the first one) and must be
    // turned away with a clean Bye at run end.
    let mut leaver = worker();
    leaver.leave_at_barrier = Some(1);
    let mut joiner = worker();
    joiner.join = true;
    let mut late_joiner = worker();
    late_joiner.join = true;
    let (net, worker_reports) = run_net(&config, opts, vec![leaver, worker(), joiner, late_joiner]);

    assert_eq!(
        net.migrations, 2,
        "one rank re-hosted at the departure, one donated to the joiner"
    );
    let est = net.report.expectation()[0];
    assert!(
        (est - FINE_MEAN).abs() < 0.1,
        "estimate {est} drifted from the fine mean {FINE_MEAN} across migrations"
    );
    assert_eq!(net.report.levels[0].n_samples, 900);
    assert_eq!(net.report.levels[1].n_samples, 150);

    let leaver_report = &worker_reports[0];
    assert!(leaver_report.retired, "departing worker must retire");
    let joined: Vec<_> = worker_reports[2..]
        .iter()
        .filter(|r| !r.ranks.is_empty())
        .collect();
    assert_eq!(joined.len(), 1, "exactly one joiner must be admitted");
    assert_eq!(
        joined[0].ranks, leaver_report.ranks,
        "the donated rank is the one the departing worker gave up"
    );
    assert!(
        worker_reports[2..]
            .iter()
            .any(|r| r.ranks.is_empty() && !r.retired),
        "the never-admitted joiner must be turned away cleanly"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A net universe through the front door — the caller's own snapshot
/// hook and stop flag included — with every process on a one-worker pool.
fn run_net_checkpointed(
    config: &RuntimeConfig,
    ckpt: &ParallelCheckpoint<'_>,
    workers: Vec<NetWorkerOptions>,
) -> (RuntimeReport, Vec<NetWorkerReport>) {
    let driver = NetDriver::bind("127.0.0.1:0").expect("bind loopback");
    let addr = driver.local_addr().to_string();
    let initial = workers.iter().filter(|w| !w.join).count();
    let off = Tracer::disabled();
    std::thread::scope(|s| {
        let dial = |mut w: NetWorkerOptions| {
            w.connect = addr.clone();
            let off = &off;
            s.spawn(move || net_worker(&Runtime::new(1), &Ridge, &w, off))
        };
        let workers: Vec<_> = workers.into_iter().map(dial).collect();
        let net = Run::new(&Ridge, config, &off, Some(ckpt), None).on(Placement::Net {
            runtime: &Runtime::new(1),
            driver,
            workers: initial,
        });
        let workers = workers.into_iter().map(|w| w.join().expect("worker"));
        (net.expect("a live run"), workers.collect())
    })
}

/// The caller raises its `stop` in the very barrier at which a worker is
/// due to leave. The caller wins: the run comes back `preempted` from
/// that barrier, no rank moves, and the barrier's cut is an ordinary one
/// — it resumes on a pool to the digest of the uninterrupted run.
#[test]
fn a_caller_stop_at_a_barrier_where_a_leave_is_due_preempts_the_run() {
    let dir = std::env::temp_dir().join(format!("uq-net-stop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = RunStore::open(&dir).expect("open store");
    let config = RuntimeConfig {
        base: config(600, 120, 23_2026),
        n_workers: 1,
        collector_shards: 1,
    };
    let expected = in_process_digest(&config.base);
    let (barriers, stop) = (AtomicUsize::new(0), AtomicBool::new(false));
    let hook = |_done: usize, _hash: &str| {
        barriers.fetch_add(1, Ordering::SeqCst);
        stop.store(true, Ordering::SeqCst);
    };
    let ckpt = ParallelCheckpoint {
        store: &store,
        config_hash: 0x23_e37,
        every: 25,
        on_snapshot: Some(&hook),
        stop: Some(&stop),
    };
    let mut leaver = worker();
    leaver.leave_at_barrier = Some(1);
    let (net, worker_reports) = run_net_checkpointed(&config, &ckpt, vec![leaver, worker()]);
    assert!(net.preempted, "the caller's stop was ignored");
    assert_eq!(barriers.load(Ordering::SeqCst), 1, "a segment followed");
    assert_eq!(net.migrations, Some(0));
    assert!(worker_reports.iter().all(|r| !r.retired));

    let cut = store.latest_snapshot(Some(0x23_e37)).expect("manifest");
    let (_, cut) = cut.expect("the barrier's snapshot");
    let off = Tracer::disabled();
    let resumed = Run::new(&Ridge, &config, &off, None, Some(&cut))
        .on(Placement::Pool(&Runtime::new(1)))
        .expect("a live run");
    assert!(!resumed.preempted);
    assert_eq!(levels_digest(&resumed.report.levels), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A leave at barrier 1 and a join at barrier 2 cut the run into three
/// segments. The caller's snapshot hook must not see the seams: every
/// barrier once, in the order the store recorded them.
#[test]
fn the_snapshot_hook_sees_every_barrier_once_across_membership_changes() {
    let dir = std::env::temp_dir().join(format!("uq-net-hook-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = RunStore::open(&dir).expect("open store");
    let config = RuntimeConfig {
        base: config(900, 150, 29_2026),
        n_workers: 1,
        collector_shards: 1,
    };
    let seen = Mutex::new(Vec::new());
    let hook = |done: usize, hash: &str| seen.lock().unwrap().push((done, hash.to_string()));
    let ckpt = ParallelCheckpoint {
        store: &store,
        config_hash: 0x29_e37,
        every: 25,
        on_snapshot: Some(&hook),
        stop: None,
    };
    let mut leaver = worker();
    leaver.leave_at_barrier = Some(1);
    let mut joiner = worker();
    joiner.join = true;
    let (net, _) = run_net_checkpointed(&config, &ckpt, vec![leaver, worker(), joiner]);
    assert!(!net.preempted);
    assert_eq!(net.migrations, Some(2), "a leave and a join");
    assert_eq!(
        levels_digest(&net.report.levels),
        in_process_digest(&config.base)
    );

    let seen = seen.into_inner().unwrap();
    assert!(
        seen.len() >= 3,
        "barriers on both sides of both seams: {seen:?}"
    );
    assert!(
        seen.windows(2).all(|w| w[0].0 < w[1].0),
        "in order: {seen:?}"
    );
    let records = store.manifest_records().expect("manifest");
    let recorded = records.iter().filter_map(|r| r.get("hash"));
    let hashes: Vec<&str> = seen.iter().map(|(_, hash)| hash.as_str()).collect();
    assert_eq!(recorded.collect::<Vec<_>>(), hashes, "exactly once");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A peer dials in after the rendezvous and says nothing for the whole
/// run. The listener reads its `Hello` under a deadline and hangs up;
/// without one it reads for ever, and the driver — which joins its
/// listener at teardown — never returns from a finished run.
#[test]
fn a_silent_peer_cannot_hold_a_finished_run() {
    let config = config(300, 100, 19_2026);
    let expected = in_process_digest(&config);
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let opts = NetDriverOptions {
            workers: 2,
            every: 0,
            store: None,
            config_hash: 0,
        };
        let tracer = Tracer::new();
        let (net, (workers, silent)) = run_driver(&config, &opts, &tracer, |addr| {
            let dial = |addr: String| {
                let w = NetWorkerOptions {
                    connect: addr,
                    ..worker()
                };
                std::thread::spawn(move || run_net_worker(Arc::new(Ridge), &w, &Tracer::disabled()))
            };
            let workers = [dial(addr.to_string()), dial(addr.to_string())];
            // once both Hellos are read the rendezvous accepts nothing
            // further: this connection is the mid-run listener's
            let (tracer, addr) = (tracer.clone(), addr.to_string());
            let silent = std::thread::spawn(move || {
                while tracer.counter(Counter::NetFramesIn) < 2 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                TcpStream::connect(addr).expect("dial the driver")
            });
            (workers, silent)
        });
        // still connected, still silent, when the driver came back
        let _silent = silent.join().expect("silent peer panicked");
        for w in workers {
            w.join().expect("worker thread panicked");
        }
        let _ = done_tx.send(levels_digest(&net.report.levels));
    });
    let digest = done_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("the driver never returned: a silent peer holds its listener");
    assert_eq!(digest, expected);
}

/// A driver may hang up the moment it has read a worker's `Bye`, and the
/// worker must take that end of file as the end of the run however late
/// its own threads get to run: its reader has to know that the `Bye` is
/// out before the `Bye` is on the wire, or a hang-up that wins the race
/// reads as "net worker: connection to driver lost". The driver here is
/// a script that never decodes: the worker's last bytes are the `Bye`'s.
#[test]
fn a_driver_that_hangs_up_on_the_bye_ends_the_worker_cleanly() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let config = config(40, 10, 7);
    let top = config.n_ranks() - 1;
    let assign = encode_frame(&Frame::Assign {
        n_ranks: config.n_ranks(),
        ranks: vec![top],
        config: config.clone(),
        ckpts: vec![],
    });
    let stop = encode_frame(&Frame::Data {
        to: top,
        from: 0,
        msg: Msg::Shutdown,
    });
    let bye = encode_frame(&Frame::Bye);
    for _ in 0..40 {
        let w = NetWorkerOptions {
            connect: addr.clone(),
            ..worker()
        };
        let worker =
            std::thread::spawn(move || run_net_worker(Arc::new(Ridge), &w, &Tracer::disabled()));
        let (mut stream, _) = listener.accept().expect("accept");
        stream.write_all(&assign).expect("Assign");
        stream.write_all(&stop).expect("Shutdown");
        let (mut seen, mut chunk) = (Vec::new(), [0; 4096]);
        while !seen.ends_with(&bye) {
            let n = stream.read(&mut chunk).expect("read from the worker");
            assert!(n > 0, "the worker hung up without a Bye");
            seen.extend_from_slice(&chunk[..n]);
        }
        drop(stream);
        assert!(!worker.join().expect("worker panicked").retired);
    }
}

// ---------------------------------------------------------------------
// workers as separate OS processes (`common/reexec.rs`)
// ---------------------------------------------------------------------

const ROLE_ENV: &str = "UQ_NET_ROLE";
const ADDR_ENV: &str = "UQ_NET_ADDR";

/// [`Ridge`], every evaluation noting how many threads its process runs
/// (`Threads:` in `/proc/self/status`) into a running maximum.
struct ThreadCensus(Arc<AtomicUsize>);

struct Counted(Box<dyn SamplingProblem>, Arc<AtomicUsize>);

impl SamplingProblem for Counted {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn log_density(&mut self, theta: &[f64]) -> f64 {
        let status = std::fs::read_to_string("/proc/self/status").expect("read procfs");
        let threads = status.lines().find_map(|l| l.strip_prefix("Threads:"));
        let threads = threads.expect("a Threads: line").trim().parse();
        self.1
            .fetch_max(threads.expect("a thread count"), Ordering::Relaxed);
        self.0.log_density(theta)
    }
}

impl LevelFactory for ThreadCensus {
    fn n_levels(&self) -> usize {
        Ridge.n_levels()
    }
    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(Counted(Ridge.problem(level), Arc::clone(&self.0)))
    }
    fn proposal(&self, level: usize) -> Box<dyn Proposal> {
        Ridge.proposal(level)
    }
    fn subsampling_rate(&self, level: usize) -> usize {
        Ridge.subsampling_rate(level)
    }
    fn starting_point(&self, level: usize) -> Vec<f64> {
        Ridge.starting_point(level)
    }
}

/// This test binary again, as a worker process dialling `addr`; `role`
/// is `worker`, `leave` (depart at barrier 1), `join` or `census` (count
/// the process's threads during every evaluation).
fn worker_process(role: &str, addr: &str) -> Child {
    spawn_self(
        "net_worker_processes_match_in_process_and_migrate",
        &[(ROLE_ENV, role), (ADDR_ENV, addr)],
    )
}

#[test]
fn net_worker_processes_match_in_process_and_migrate() {
    if let Ok(role) = env::var(ROLE_ENV) {
        let opts = NetWorkerOptions {
            connect: env::var(ADDR_ENV).expect("worker process without UQ_NET_ADDR"),
            join: role == "join",
            leave_at_barrier: (role == "leave").then_some(1),
        };
        let most = Arc::new(AtomicUsize::new(0));
        let factory: Arc<dyn LevelFactory> = match role.as_str() {
            "census" => Arc::new(ThreadCensus(Arc::clone(&most))),
            _ => Arc::new(Ridge),
        };
        let hosted = run_net_worker(factory, &opts, &Tracer::disabled())
            .ranks
            .len();
        // the pool, uplink, downlink, this test's thread and libtest's
        // main — however many ranks are hosted
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let most = most.load(Ordering::Relaxed);
        assert!(
            most <= cores + 4,
            "{most} threads on {cores} cores hosting {hosted} ranks"
        );
        return;
    }

    // two processes: this driver and one worker hosting both controllers
    let static_config = config(300, 100, 18_2026);
    let opts = NetDriverOptions {
        workers: 1,
        every: 0,
        store: None,
        config_hash: 0,
    };
    let (net, worker) = run_driver(&static_config, &opts, &Tracer::disabled(), |addr| {
        worker_process("worker", addr)
    });
    expect_success(worker, "net worker process");
    assert_eq!(
        levels_digest(&net.report.levels),
        in_process_digest(&static_config),
        "a worker in its own process diverged from the in-process backends"
    );
    assert_eq!(net.migrations, 0);

    // two processes again, the worker hosting 32 + 32 controllers: its
    // thread count follows its cores, not its ranks (asserted from
    // inside, where `Threads:` can be read)
    #[cfg(target_os = "linux")]
    {
        let mut wide = config(6000, 1600, 19_2026);
        wide.chains_per_level = vec![32, 32];
        wide.burn_in = vec![50, 100];
        let (net, worker) = run_driver(&wide, &opts, &Tracer::disabled(), |addr| {
            worker_process("census", addr)
        });
        expect_success(worker, "thread-census worker process");
        assert_eq!(net.report.levels[0].n_samples, 6000);
        assert_eq!(net.report.levels[1].n_samples, 1600);
        let est = net.report.expectation()[0];
        assert!(
            (est - FINE_MEAN).abs() < 0.1,
            "estimate {est} drifted from the fine mean {FINE_MEAN} on 64 controllers"
        );
    }

    // four processes: one worker departs at the first barrier, a joiner
    // dials in mid-run and is donated the re-hosted rank at a later one
    let dir = env::temp_dir().join(format!("uq-net-procs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let elastic_config = config(3000, 600, 7_2026);
    let opts = NetDriverOptions {
        workers: 2,
        every: 25,
        store: Some(Arc::new(RunStore::open(&dir).expect("open store"))),
        config_hash: 0x18_e37,
    };
    let tracer = Tracer::new();
    let (net, (mut workers, joiner)) = run_driver(&elastic_config, &opts, &tracer, |addr| {
        let workers = vec![
            worker_process("leave", addr),
            worker_process("worker", addr),
        ];
        // started once both Hellos are read: the rendezvous accepts
        // nothing further, so the joiner is a mid-run connection (counted
        // as a reconnect), not one queued before the run began
        let (tracer, addr) = (tracer.clone(), addr.to_string());
        let joiner = std::thread::spawn(move || {
            while tracer.counter(Counter::NetFramesIn) < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
            worker_process("join", &addr)
        });
        (workers, joiner)
    });
    workers.push(joiner.join().expect("joiner launcher panicked"));
    for worker in workers {
        expect_success(worker, "net worker process");
    }
    assert_eq!(
        net.migrations, 2,
        "one rank re-hosted at the departure, one donated to the joiner"
    );
    assert!(
        tracer.counter(Counter::NetReconnects) >= 1,
        "the joiner dialled in after the rendezvous"
    );
    assert_eq!(net.report.levels[0].n_samples, 3000);
    assert_eq!(net.report.levels[1].n_samples, 600);
    let est = net.report.expectation()[0];
    assert!(
        (est - FINE_MEAN).abs() < 0.1,
        "estimate {est} drifted from the fine mean {FINE_MEAN} across processes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
