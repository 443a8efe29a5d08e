//! What the multi-process TCP transport (`uq_parallel::net`) must do
//! beyond giving a placement's digest (the conformance matrix runs the
//! ridge over net workers — static, with a leaver, with a leaver and
//! joiners — against the pool):
//!
//! * a caller's `stop` at a barrier where a worker is due to leave ends
//!   the run there, and its snapshot hook sees every barrier once across
//!   the segments that membership changes cut a run into;
//! * a peer that connects and never says `Hello` must not hold a finished
//!   run, and a driver that hangs up on a worker's `Bye` must not fail
//!   the worker;
//! * the static and the elastic case hold with every worker a separate
//!   OS process (the test binary re-executing itself, an OS-assigned
//!   port), and a worker process hosting 64 controllers runs as many
//!   threads as its cores, not its ranks;
//! * on a Poisson hierarchy with the paper's 1089-component QOI, a
//!   correction that repeats its chain's last one crosses the socket
//!   without its `y`, and the run keeps its in-process digest.
//!
//! Fixture: the tight-ridge two-level Gaussian hierarchy (fine
//! `N(0.35, 0.12²)`, coarse `N(0, 0.15²)`, `ρ = 2`), and for the bytes
//! `poisson_net`'s hierarchy.

use std::env;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use uq_fem::problem::constants::TRUTH_SEED;
use uq_fem::problem::{PoissonFactory, PoissonHierarchy};
use uq_mcmc::{Proposal, SamplingProblem};
use uq_mlmcmc::store::RunStore;
use uq_mlmcmc::LevelFactory;
use uq_parallel::scheduler::Msg;
use uq_parallel::{
    encode_frame, levels_digest, net_worker, run_net_worker, Counter, Frame, NetDriver,
    NetDriverOptions, NetReport, NetWorkerOptions, NetWorkerReport, ParallelCheckpoint,
    ParallelConfig, Placement, Run, Runtime, RuntimeConfig, RuntimeReport, Tracer,
};

#[path = "common/reexec.rs"]
mod reexec;
#[path = "common/ridge.rs"]
mod ridge;
use reexec::{expect_success, spawn_self};
use ridge::{deterministic, pool_digest, Ridge, FINE_MEAN};

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

fn worker() -> NetWorkerOptions {
    NetWorkerOptions {
        connect: String::new(),
        join: false,
        leave_at_barrier: None,
    }
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
    let config = deterministic(600, 120, 23_2026);
    let expected = pool_digest(&config);
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

    let cut = store.latest_snapshot(Some(0x23_e37)).expect("index");
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
    let config = deterministic(900, 150, 29_2026);
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
    assert_eq!(levels_digest(&net.report.levels), pool_digest(&config));

    let seen = seen.into_inner().unwrap();
    assert!(
        seen.len() >= 3,
        "barriers on both sides of both seams: {seen:?}"
    );
    assert!(
        seen.windows(2).all(|w| w[0].0 < w[1].0),
        "in order: {seen:?}"
    );
    let recorded = store.cuts().expect("index");
    let hashes: Vec<&str> = seen.iter().map(|(_, hash)| hash.as_str()).collect();
    assert_eq!(recorded, hashes, "exactly once");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A peer dials in after the rendezvous and says nothing for the whole
/// run. The listener reads its `Hello` under a deadline and hangs up;
/// without one it reads for ever, and the driver — which joins its
/// listener at teardown — never returns from a finished run.
#[test]
fn a_silent_peer_cannot_hold_a_finished_run() {
    let config = deterministic(300, 100, 19_2026);
    let expected = pool_digest(&config);
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let opts = NetDriverOptions {
            workers: 2,
            every: 0,
            store: None,
            config_hash: 0,
        };
        let tracer = Tracer::new();
        let (net, (workers, silent)) = run_driver(&config.base, &opts, &tracer, |addr| {
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
    let config = deterministic(40, 10, 7).base;
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
    let static_config = deterministic(300, 100, 18_2026);
    let opts = NetDriverOptions {
        workers: 1,
        every: 0,
        store: None,
        config_hash: 0,
    };
    let (net, worker) = run_driver(&static_config.base, &opts, &Tracer::disabled(), |addr| {
        worker_process("worker", addr)
    });
    expect_success(worker, "net worker process");
    assert_eq!(
        levels_digest(&net.report.levels),
        pool_digest(&static_config),
        "a worker in its own process diverged from the pool"
    );
    assert_eq!(net.migrations, 0);

    // two processes again, the worker hosting 32 + 32 controllers: its
    // thread count follows its cores, not its ranks (asserted from
    // inside, where `Threads:` can be read)
    #[cfg(target_os = "linux")]
    {
        let mut wide = deterministic(6000, 1600, 19_2026).base;
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
    let elastic_config = deterministic(3000, 600, 7_2026).base;
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

/// `poisson_net`'s hierarchy (Poisson, m = 24, n = 8 / 16, ρ = 5; its QOI
/// is 1089 values, 8712 bytes) over one net worker on loopback, one chain
/// per level. Level 0 accepts a few percent of its proposals, so most
/// corrections repeat their chain's last `y` and travel without it: the
/// run writes less than a quarter of what the corrections' `y`s alone
/// would take (about 13 %; every `y` shipped, it wrote more than that
/// whole), and its digest is the in-process run's. At N = [250, 60] the
/// share read 0.25 and 0.32 in two runs: without burn-in the chains'
/// first moves are a larger part of a short run, and level 0's surplus
/// after its quota depends on timing.
#[test]
fn a_poisson_net_run_ships_a_repeated_y_as_nothing() {
    let hierarchy = PoissonHierarchy::new(24, vec![8, 16], TRUTH_SEED);
    let factory = PoissonFactory::new(hierarchy, vec![5]);
    let n = [1000, 250];
    let mut config = RuntimeConfig::new(n.to_vec(), vec![1, 1]);
    config.base.load_balancing = false;
    config.n_workers = 1;
    let off = Tracer::disabled();
    let pool = Run::new(&factory, &config, &off, None, None)
        .on(Placement::Pool(&Runtime::new(1)))
        .expect("a live run");

    let driver = NetDriver::bind("127.0.0.1:0").expect("bind loopback");
    let opts = NetWorkerOptions {
        connect: driver.local_addr().to_string(),
        ..worker()
    };
    let tracer = Tracer::new();
    let net = std::thread::scope(|s| {
        let (factory, tracer) = (&factory, &tracer);
        let worker = s.spawn(move || net_worker(&Runtime::new(1), factory, &opts, tracer));
        let net = Run::new(factory, &config, tracer, None, None).on(Placement::Net {
            runtime: &Runtime::new(1),
            driver,
            workers: 1,
        });
        worker.join().expect("worker");
        net.expect("a live run")
    });
    assert_eq!(
        levels_digest(&net.report.levels),
        levels_digest(&pool.report.levels)
    );
    let bytes = tracer.counter(Counter::NetBytesOut);
    let y_bytes = 8712 * (n[0] + n[1]) as u64;
    assert!(
        bytes * 4 < y_bytes,
        "{bytes} bytes written, {y_bytes} in the corrections' y alone"
    );
}
