//! The conformance matrix: the scheduling policy gives the same answer
//! wherever its ranks run — a table-driven differential test (McKeeman,
//! *Digital Technical Journal* 10(1), 1998). A row is one configuration
//! under one event, run on a list of placements, and one `#[test]` named
//! after it; each cell states its invariant:
//!
//! * **exact** — its `levels_digest` equals that of the row's reference
//!   cell, a plain run of the configuration (no event, no tracer);
//! * **invariant-only** — exact `N_l` and a finite estimate and, in
//!   virtual time, no stream position served twice (traced) and nothing
//!   stranded before the teardown (instant service). A row that had an
//!   estimate band keeps it in its own check.
//!
//! Every run goes through `Run::on`; a serviced cell through
//! `Service::submit`, compared at the tenant seed. A failing cell's
//! message starts with its row, configuration, event, placement and seed.
//! DESIGN §7.4 quotes the table that `the_design_quotes_the_matrix`
//! renders from [`ROWS`].

use std::env;
use std::fmt::{self, Write as _};
use std::fs;
use std::panic::resume_unwind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use uq_mlmcmc::ledger::tenant_seed;
use uq_mlmcmc::{LevelFactory, RunSnapshot, RunStore};
use uq_parallel::scheduler::ParallelLevelReport;
use uq_parallel::{
    levels_digest, net_worker, Counter, JobSpec, JobState, MetricsSnapshot, NetDriver,
    NetWorkerOptions, NetWorkerReport, ParallelCheckpoint, Placement, Run, Runtime, RuntimeConfig,
    RuntimeReport, Service, ServiceConfig, SimCost, SpanKind, Tracer,
};

#[path = "common/gaussians.rs"]
mod gaussians;
#[path = "common/reexec.rs"]
mod reexec;
#[path = "common/ridge.rs"]
mod ridge;
use gaussians::{PLANE, PLANE_SAMPLES, THREE_LEVELS};
use reexec::{expect_success, printed, spawn_self};
use ridge::{pool_digest, Ridge, COARSE_MEAN, FINE_MEAN, RHO};

// ---------------------------------------------------------------------
// the axes
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Fixture {
    /// [`Ridge`]: two 1-d levels, `ρ = 2`.
    Ridge,
    /// [`THREE_LEVELS`]: three 1-d levels, `ρ = 3`.
    ThreeLevels,
    /// [`PLANE`]: three 2-d levels, `ρ = (20, 12)`.
    Plane,
}

/// A fixture at one configuration.
#[derive(Clone, Copy)]
struct Config {
    fixture: Fixture,
    n: &'static [usize],
    chains: &'static [usize],
    burn: &'static [usize],
    /// `None`: a simulated cell's delivery seed seeds its run too.
    seed: Option<u64>,
    balance: bool,
    record: bool,
}

/// The ridge's deterministic regime: one chain per level, burn-in
/// `[30, 20]`, balancer off, recording on.
const fn ridge(n: &'static [usize], seed: u64) -> Config {
    Config {
        fixture: Fixture::Ridge,
        n,
        chains: &[1, 1],
        burn: &[30, 20],
        seed: Some(seed),
        balance: false,
        record: true,
    }
}

/// A three-level Gaussian at the default seed, balancer on, recording off.
const fn balanced(
    fixture: Fixture,
    n: &'static [usize],
    chains: &'static [usize],
    burn: &'static [usize],
) -> Config {
    Config {
        fixture,
        n,
        chains,
        burn,
        seed: Some(7),
        balance: true,
        record: false,
    }
}

impl Config {
    fn factory(&self) -> &'static dyn LevelFactory {
        match self.fixture {
            Fixture::Ridge => &Ridge,
            Fixture::ThreeLevels => &THREE_LEVELS,
            Fixture::Plane => &PLANE,
        }
    }

    fn runtime(&self, seed: u64) -> RuntimeConfig {
        let mut config = RuntimeConfig::new(self.n.to_vec(), self.chains.to_vec());
        config.base.burn_in = self.burn.to_vec();
        config.base.seed = seed;
        config.base.load_balancing = self.balance;
        config.base.record_samples = self.record;
        config.n_workers = 1;
        config
    }
}

/// Where a cell runs.
#[derive(Clone, Copy, Debug)]
enum At {
    /// A pool as wide as the host.
    Host,
    Pool(usize),
    /// A pool with a worker per rank: every rank runnable at once.
    Ranks,
    /// Virtual time, one cell per delivery seed of the range, each drawing
    /// its latency scale and jitter from [`cost`].
    Sim(u64, u64),
    /// [`At::Sim`] with a phonebook and collectors that take no time per
    /// message: a rank's clock stands still while it handles one, so
    /// "before the phonebook's exit" is exact.
    Instant(u64, u64),
    /// Virtual time under the resumed cell's delivery seed + 1000: another
    /// delivery order from the cut on.
    Reordered,
    /// A driver and `k` workers on loopback TCP, each on a host-wide pool.
    Net(usize),
    /// The job of `tenant` through a [`Service`], compared at the tenant
    /// seed, with one lane and one pool worker per job. `rival` is a
    /// second tenant's job `(tenant, targets, priority)` on the same
    /// service at the same time, checked against its own standalone run.
    /// A preempt lands at the first barrier after a job is seen running.
    Serviced {
        tenant: u64,
        rival: Option<(u64, &'static [usize], f64)>,
    },
}

/// What happens to a run.
#[derive(Clone, Copy, Debug)]
enum Event {
    None,
    /// Checkpoint every `every` top-level corrections, the hook counting
    /// the barriers; every cut then resumes on each of `resume` to the
    /// reference digest.
    Checkpoint {
        every: usize,
        resume: &'static [At],
    },
    /// Stop at barrier `at` (a simulated cell at barrier `1 + seed % at`)
    /// and resume the cut on `resume`, or where it ran.
    Preempt {
        every: usize,
        at: usize,
        resume: Option<At>,
    },
    /// Net only, checkpoints every 25: worker 0 leaves at barrier 1; with
    /// `join` two joiners dial in, one to be admitted, one turned away.
    Leave {
        join: bool,
    },
    /// A child process checkpoints every `every` and `abort()`s from the
    /// hook at snapshot `kill + pid % 3`; a second child resumes from the
    /// latest cut on the same placement.
    Crash {
        every: usize,
        kill: usize,
    },
}

impl Event {
    fn every(&self) -> Option<usize> {
        match *self {
            Event::None => None,
            Event::Checkpoint { every, .. }
            | Event::Preempt { every, .. }
            | Event::Crash { every, .. } => Some(every),
            Event::Leave { .. } => Some(25),
        }
    }
}

struct Row {
    config: Config,
    event: Event,
    traced: bool,
    reference: Option<At>,
    exact: &'static [At],
    invariant: &'static [At],
    /// What the row asserts beyond its cells; the reference cell's outcome
    /// comes first.
    check: fn(&Row, &[Outcome]),
}

const ROW: Row = Row {
    config: ridge(&[], 0),
    event: Event::None,
    traced: false,
    reference: None,
    exact: &[],
    invariant: &[],
    check: |_, _| {},
};

// ---------------------------------------------------------------------
// the rows
// ---------------------------------------------------------------------

/// One `#[test]` per row, named after it, and the table of them all.
macro_rules! rows {
    ($($name:ident: $row:expr,)*) => {
        const ROWS: &[(&str, Row)] = &[$((stringify!($name), $row),)*];
        $(#[test] fn $name() { $row.run(); })*
    };
}

rows! {
    ridge_on_three_pool_widths: Row {
        config: ridge(&[300, 100], 15_2026),
        reference: Some(At::Host), exact: &[At::Pool(1), At::Ranks], ..ROW },
    ridge_over_two_net_workers: Row {
        config: ridge(&[300, 100], 2_2026),
        reference: Some(At::Host), exact: &[At::Pool(1), At::Net(2)], ..ROW },
    unrecorded_ridge_over_two_net_workers: Row {
        config: Config { record: false, ..ridge(&[300, 100], 2_2026) },
        reference: Some(At::Host), exact: &[At::Pool(1), At::Net(2)],
        check: recording_moves_no_moment, ..ROW },
    ridge_leaves_a_net_worker: Row {
        config: ridge(&[600, 120], 11_2026), event: Event::Leave { join: false },
        reference: Some(At::Host), exact: &[At::Net(2)], check: no_step_lost, ..ROW },
    unrecorded_ridge_leaves_a_net_worker: Row {
        config: Config { record: false, ..ridge(&[600, 120], 11_2026) },
        event: Event::Leave { join: false },
        reference: Some(At::Host), exact: &[At::Net(2)], check: no_step_lost, ..ROW },
    ridge_leaves_and_joins_net_workers: Row {
        config: ridge(&[900, 150], 7_2026), event: Event::Leave { join: true },
        reference: Some(At::Host), exact: &[At::Net(2)], check: near_the_fine_mean::<10>, ..ROW },
    ridge_serviced_beside_a_rival: Row {
        config: ridge(&[300, 100], 10_2026),
        reference: Some(At::Host),
        exact: &[
            At::Pool(1), At::Net(1),
            At::Serviced { tenant: 1, rival: Some((2, &[500, 150], 3.0)) },
        ],
        check: near_the_fine_mean::<15>, ..ROW },
    ridge_serviced_and_preempted: Row {
        config: ridge(&[2_000, 600], 11_2026),
        event: Event::Preempt { every: 5, at: 1, resume: None },
        reference: Some(At::Host), exact: &[At::Serviced { tenant: 7, rival: None }], ..ROW },
    two_tenants_serviced_preempted_and_resumed_apart: Row {
        config: ridge(&[1_500, 500], 21),
        event: Event::Preempt { every: 5, at: 1, resume: None },
        reference: Some(At::Pool(1)),
        exact: &[At::Serviced { tenant: 1, rival: Some((2, &[2_000, 700], 1.0)) }], ..ROW },
    ridge_preempted_on_the_net_resumes_on_a_pool: Row {
        config: ridge(&[300, 500], 33),
        event: Event::Preempt { every: 40, at: 2, resume: Some(At::Pool(1)) },
        reference: Some(At::Pool(1)), exact: &[At::Net(2)], ..ROW },
    ridge_preempted_on_a_pool_resumes_on_the_net: Row {
        config: ridge(&[300, 500], 33),
        event: Event::Preempt { every: 40, at: 2, resume: Some(At::Net(2)) },
        reference: Some(At::Pool(1)), exact: &[At::Pool(1)], ..ROW },
    ridge_checkpointed_on_the_net_resumes_on_a_pool: Row {
        config: ridge(&[300, 500], 33),
        event: Event::Checkpoint { every: 40, resume: &[At::Pool(2)] },
        reference: Some(At::Host), exact: &[At::Net(2)], ..ROW },
    ridge_crashes_on_two_workers: Row {
        config: ridge(&[300, 500], 33), event: Event::Crash { every: 40, kill: 1 },
        reference: Some(At::Host), exact: &[At::Pool(2)], ..ROW },
    ridge_crashes_on_one_worker: Row {
        config: ridge(&[300, 500], 21), event: Event::Crash { every: 25, kill: 4 },
        reference: Some(At::Pool(1)), exact: &[At::Pool(1)], ..ROW },
    ridge_checkpointed_on_one_worker: Row {
        config: ridge(&[300, 500], 21), event: Event::Checkpoint { every: 40, resume: &[] },
        reference: Some(At::Pool(1)), exact: &[At::Pool(1)], ..ROW },
    ridge_traced_on_the_host_pool: Row {
        config: Config { burn: &[100, 60], ..ridge(&[1_500, 2_000], 33) }, traced: true,
        reference: Some(At::Host), exact: &[At::Host], ..ROW },
    ridge_traced_on_one_worker: Row {
        config: ridge(&[300, 500], 21), traced: true,
        reference: Some(At::Pool(1)), exact: &[At::Pool(1)], ..ROW },
    ridge_traced_across_checkpoints: Row {
        config: ridge(&[300, 500], 21), event: Event::Checkpoint { every: 100, resume: &[] },
        traced: true, reference: Some(At::Pool(1)), exact: &[At::Pool(1)], ..ROW },
    two_chain_ridge_checkpointed_on_four_workers: Row {
        config: Config {
            chains: &[2, 2], burn: &[1_000, 500], record: false,
            ..ridge(&[30_000, 15_000], 4242)
        },
        event: Event::Checkpoint { every: 1_000, resume: &[] },
        invariant: &[At::Pool(4)], check: the_ridge_correction_stays_put, ..ROW },
    ridge_under_every_delivery: Row {
        config: ridge(&[150, 60], 17_2026),
        reference: Some(At::Pool(1)), exact: &[At::Host, At::Sim(0, 700)],
        check: simulated_steps_bracket_the_live_ones, ..ROW },
    every_simulated_barrier_is_a_consistent_cut: Row {
        config: ridge(&[120, 50], 6_2026),
        event: Event::Checkpoint { every: 9, resume: &[At::Reordered, At::Pool(1)] },
        reference: Some(At::Pool(1)), exact: &[At::Sim(0, 60)], ..ROW },
    a_simulated_stop_at_any_barrier_resumes: Row {
        config: ridge(&[120, 50], 9_2026),
        event: Event::Preempt { every: 9, at: 4, resume: Some(At::Reordered) },
        reference: Some(At::Pool(1)), exact: &[At::Sim(0, 120)], ..ROW },
    skewed_three_levels_under_every_delivery: Row {
        config: balanced(Fixture::ThreeLevels, &[300, 200, 40], &[6, 1, 1], &[20, 10, 5]),
        traced: true,
        invariant: &[At::Instant(0, 200)], check: the_balancer_moved_a_chain, ..ROW },
    balanced_three_levels_under_every_delivery: Row {
        config: Config {
            seed: None,
            ..balanced(Fixture::ThreeLevels, &[40, 20, 8], &[2, 1, 1], &[10, 5, 3])
        },
        invariant: &[At::Sim(0, 1_000)], ..ROW },
    plane_on_the_host_pool: Row {
        config: balanced(Fixture::Plane, &[2_000, 500, 150], &[1, 1, 1], &[50, 20, 10]),
        invariant: &[At::Host],
        // subsampling makes coarse evaluations outnumber coarse samples
        check: |_, out| assert!(report(&out[0]).report.levels[0].evaluations > 2_000),
        ..ROW },
    plane_on_two_of_its_levels: Row {
        config: Config {
            balance: false,
            ..balanced(Fixture::Plane, &[800, 200], &[1, 1], &[20, 10])
        },
        invariant: &[At::Host],
        check: |_, out| assert_eq!(report(&out[0]).report.reassignments, 0), ..ROW },
    skewed_plane_on_the_host_pool: Row {
        config: balanced(Fixture::Plane, &[3_000, 600, 200], &[4, 1, 3], &[50, 20, 10]),
        invariant: &[At::Host], check: the_balancer_moved_a_chain, ..ROW },
    plane_estimates_agree_across_pool_widths: Row {
        config: balanced(Fixture::Plane, PLANE_SAMPLES, &[2, 2, 1], &[300, 120, 50]),
        invariant: &[At::Host, At::Pool(4)], check: the_estimates_agree, ..ROW },
    plane_on_three_workers_for_117_ranks: Row {
        config: balanced(Fixture::Plane, &[6_000, 1_200, 300], &[70, 30, 12], &[30, 15, 8]),
        invariant: &[At::Pool(3)], check: |_, out| {
            let run = report(&out[0]);
            assert_eq!(run.report.n_ranks, 2 + 3 + 112);
            assert!(run.phonebook.messages > 0 && run.phonebook.max_batch >= 2);
        }, ..ROW },
}

// ---------------------------------------------------------------------
// what rows check beyond their cells
// ---------------------------------------------------------------------

fn report(out: &Outcome) -> &RuntimeReport {
    out.report.as_ref().expect("a placed run")
}

/// `levels_digest` without the recorded samples: the moments alone.
fn moments_digest(levels: &[ParallelLevelReport]) -> u64 {
    let mut levels = levels.to_vec();
    for level in &mut levels {
        level.theta_samples.clear();
        level.correction_pairs.clear();
    }
    levels_digest(&levels)
}

fn recording_moves_no_moment(row: &Row, out: &[Outcome]) {
    let mut recorded = row.config.runtime(row.run_seed(0));
    recorded.base.record_samples = true;
    let off = Tracer::disabled();
    let (recorded, _) = place(&Ridge, &recorded, At::Pool(1), 0, &off, None, None, vec![]);
    assert_eq!(
        moments_digest(&report(&out[0]).report.levels),
        moments_digest(&recorded.report.levels),
        "recording must not move the collectors' moments"
    );
}

/// No step is lost with a move: a level's burn-in, its quota and the
/// subsampled steps that serve the level above are a floor under any
/// complete run's steps (how far a run overshoots it depends on timing, so
/// two runs' counts do not bound each other). Level 0 solves at each of
/// its steps, so its evaluations count them; level 1's steps are the
/// ledger's serves, which the cut carries across the move, and its
/// evaluations are at most those steps plus one chain build in each of
/// the two segments — a step whose proposal did not move solves nothing.
fn no_step_lost(row: &Row, out: &[Outcome]) {
    let floor = |l: usize| row.config.burn[l] + row.config.n[l];
    for cell in out {
        let run = report(cell);
        let [e0, e1] = [0, 1].map(|l| run.report.levels[l].evaluations);
        let (steps, label) = (run.phonebook.ledger.serves, &cell.label);
        assert!(
            e0 >= floor(0) + RHO * floor(1),
            "{label}: {e0} level-0 evals"
        );
        assert!(steps >= floor(1), "{label}: {steps} level-1 steps");
        assert!(
            e1 <= steps + 2,
            "{label}: {e1} level-1 evals, {steps} steps"
        );
    }
}

/// Every cell's estimate within `HUNDREDTHS / 100` of the fine mean.
fn near_the_fine_mean<const HUNDREDTHS: u32>(_: &Row, out: &[Outcome]) {
    for cell in out {
        let est = cell.estimate[0];
        assert!(
            (est - FINE_MEAN).abs() < f64::from(HUNDREDTHS) / 100.0,
            "{}: estimate {est} drifted from the fine mean {FINE_MEAN}",
            cell.label
        );
    }
}

/// Barriers drained while serves are in flight leave the tight-ridge
/// correction mean on `FINE − COARSE`.
fn the_ridge_correction_stays_put(_: &Row, out: &[Outcome]) {
    let corr = report(&out[0]).report.levels[1].mean_correction[0];
    assert!(
        (corr - (FINE_MEAN - COARSE_MEAN)).abs() < 0.03,
        "{}: checkpoint barriers must be statistically inert, corr = {corr}",
        out[0].label
    );
}

/// The fine chain takes its quota plus burn-in in steps — a serve each —
/// and steps on until `StopProducing` reaches it: once more under some
/// deliveries, not under others (nor on the pool). It solves once to
/// build the chain and once at each step whose proposal moved, so a cell
/// that takes no extra serve solves as often as the pool, which runs the
/// same trajectory, and one that does at most once more: only when the
/// chain resumes from that serve and its proposal moved, as under some
/// deliveries it does. Level 0 serves until `Shutdown`: ROADMAP's
/// overshoot. A delivery seed run again is the same run, clocks included.
fn simulated_steps_bracket_the_live_ones(row: &Row, out: &[Outcome]) {
    let steps = row.config.n[1] + row.config.burn[1];
    let counts = |cell: &Outcome| {
        let run = report(cell);
        let evals = |level: usize| run.report.levels[level].evaluations;
        [evals(0), evals(1), run.phonebook.ledger.serves]
    };
    let (live, sims) = (counts(&out[0]), &out[2..]);
    let (mut least, mut most) = ([usize::MAX; 3], [0; 3]);
    for cell in sims {
        for (i, count) in counts(cell).into_iter().enumerate() {
            least[i] = least[i].min(count);
            most[i] = most[i].max(count);
        }
    }
    println!("[evals l0, evals l1, serves]: live {live:?}, simulated {least:?}..={most:?}");
    assert_eq!((least[2], most[2]), (steps, steps + 1), "ledger serves");
    assert_eq!(live[2], steps, "the pool does not overstep");
    assert!(live[1] <= steps + 1, "live {live:?}");
    assert_eq!((least[1], most[1]), (live[1], live[1] + 1), "evals l1");
    for cell in sims {
        let [_, evals, serves] = counts(cell);
        if serves == steps {
            assert_eq!(evals, live[1], "{}: evals l1", cell.label);
        }
    }
    assert!(least[0] <= live[0] && live[0] <= most[0], "live {live:?}");
    for cell in sims.iter().step_by(100) {
        let again = row.cell("again", At::Sim(0, 0), cell.seed, Event::None, false, None);
        let (run, again) = (report(cell), report(&again));
        assert_eq!(again.clocks, run.clocks, "{}: not repeatable", cell.label);
        assert_eq!(again.runtime.polls, run.runtime.polls, "{}", cell.label);
    }
}

fn the_balancer_moved_a_chain(_: &Row, out: &[Outcome]) {
    let moved = out.iter().map(|cell| report(cell).report.reassignments);
    let moved: usize = moved.sum();
    assert!(moved > 0, "the balancer never moved a chain");
}

/// Two pool widths agree within 0.15, and four workers' estimate is
/// within 0.12 of the truth (bands sized at [`PLANE_SAMPLES`]).
fn the_estimates_agree(_: &Row, out: &[Outcome]) {
    let (host, four) = (&out[0].estimate, &out[1].estimate);
    for (k, truth) in [1.0, -1.0].into_iter().enumerate() {
        let (h, f) = (host[k], four[k]);
        assert!(
            (h - f).abs() < 0.15,
            "component {k}: host {h} vs four workers {f}"
        );
        assert!((f - truth).abs() < 0.12, "four workers {k}: {f}");
    }
}

// ---------------------------------------------------------------------
// running a row
// ---------------------------------------------------------------------

/// What one cell came to.
struct Outcome {
    label: String,
    /// The delivery seed of a simulated cell.
    seed: u64,
    digest: u64,
    estimate: Vec<f64>,
    /// `None` for a serviced cell and a crash (its run was a child's).
    report: Option<RuntimeReport>,
    tracer: Tracer,
}

impl Outcome {
    fn of(label: String, seed: u64, report: RuntimeReport, tracer: Tracer) -> Self {
        Self {
            label,
            seed,
            digest: levels_digest(&report.report.levels),
            estimate: report.report.expectation(),
            report: Some(report),
            tracer,
        }
    }

    /// A run whose report stayed in a service or a child process.
    fn elsewhere(label: String, digest: u64, estimate: Vec<f64>) -> Self {
        let (report, tracer) = (None, Tracer::disabled());
        Self {
            label,
            seed: 0,
            digest,
            estimate,
            report,
            tracer,
        }
    }
}

/// What a [`Row`] writes its snapshots under.
const CONFIG_HASH: u64 = 0x3a7;
const ROLE_ENV: &str = "UQ_MATRIX_ROLE";
const DIR_ENV: &str = "UQ_MATRIX_DIR";
const CRASH_ENV: &str = "UQ_MATRIX_CRASH_AT";

/// A scratch directory, removed with its value.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::SeqCst);
        let dir = env::temp_dir().join(format!("uq-matrix-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create a scratch directory");
        Self(dir)
    }

    fn store(&self) -> RunStore {
        RunStore::open(self.0.join("store")).expect("open store")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// What `seed` makes of time: 0.1 / 1 / 10 ms evaluations (30 % jitter),
/// microsecond bookkeeping, deliveries of nothing, 10 µs or 1 ms.
fn cost(seed: u64) -> SimCost {
    SimCost {
        eval_time: vec![1e-4, 1e-3, 1e-2],
        eval_jitter: 0.3,
        phonebook_service_time: 2e-6,
        collector_service_time: 1e-6,
        latency: [0.0, 1e-5, 1e-3][(seed % 3) as usize],
        poll_budget: 2_000_000,
    }
}

fn peer(leave_at_barrier: Option<u64>, join: bool) -> NetWorkerOptions {
    NetWorkerOptions {
        connect: String::new(),
        join,
        leave_at_barrier,
    }
}

impl Row {
    /// Every cell of the row, the reference's first; in a crash child,
    /// that child's part and nothing else.
    fn run(&self) {
        let thread = std::thread::current();
        let name = thread.name().expect("a test thread named after its test");
        if let Ok(role) = env::var(ROLE_ENV) {
            return self.crash_child(&role);
        }
        let reference = self.reference.map(|at| {
            let reference = self.cell(name, at, 0, Event::None, false, None);
            for level in &report(&reference).report.levels {
                let recorded = level.n_samples * usize::from(self.config.record);
                let pairs = recorded * usize::from(level.level > 0);
                assert_eq!(level.theta_samples.len(), recorded, "{}", reference.label);
                assert_eq!(level.correction_pairs.len(), pairs, "{}", reference.label);
            }
            reference
        });
        let expected = reference.as_ref().map(|r| r.digest);
        let cells = self.exact.iter().map(|&at| (true, at));
        let cells = cells.chain(self.invariant.iter().map(|&at| (false, at)));
        let cells: Vec<(bool, At, u64)> = cells
            .flat_map(|(exact, at)| {
                let seeds = match at {
                    At::Sim(from, to) | At::Instant(from, to) => from..to,
                    _ => 0..1,
                };
                seeds.map(move |seed| (exact, at, seed))
            })
            .collect();
        // the cells are independent runs: one block of them per core
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let blocks = cells.chunks(cells.len().div_ceil(cores).max(1));
        let cell = |&(exact, at, seed): &(bool, At, u64)| {
            let out = self.cell(name, at, seed, self.event, self.traced, expected);
            if exact {
                assert_eq!(Some(out.digest), expected, "{}: digest", out.label);
            } else {
                self.invariants(&out, at);
            }
            out
        };
        let mut outcomes: Vec<Outcome> = reference.into_iter().collect();
        std::thread::scope(|s| {
            let cell = &cell;
            let spawn = blocks.map(|block| s.spawn(move || block.iter().map(cell).collect()));
            let blocks: Vec<ScopedJoinHandle<Vec<Outcome>>> = spawn.collect();
            for block in blocks {
                outcomes.extend(block.join().unwrap_or_else(|why| resume_unwind(why)));
            }
        });
        (self.check)(self, &outcomes);
    }

    /// The run seed of a cell: the configuration's (or the delivery seed),
    /// as the row's tenant sees it if a service hosts one of its cells.
    fn run_seed(&self, delivery: u64) -> u64 {
        let seed = self.config.seed.unwrap_or(delivery);
        let tenant = self.exact.iter().find_map(|at| match at {
            At::Serviced { tenant, .. } => Some(*tenant),
            _ => None,
        });
        tenant.map_or(seed, |tenant| tenant_seed(seed, tenant))
    }

    /// One cell: `event` on `at` under delivery seed `seed`, every resumed
    /// run checked against `expected`.
    fn cell(
        &self,
        row: &str,
        at: At,
        seed: u64,
        event: Event,
        traced: bool,
        expected: Option<u64>,
    ) -> Outcome {
        let (config, run_seed) = (self.config, self.run_seed(seed));
        let mut label = format!("{row}: {config} · {event:?} · {at:?} · seed {run_seed}");
        if let At::Sim(..) | At::Instant(..) = at {
            write!(label, ", delivery seed {seed}").expect("a string");
        }
        if let At::Serviced { tenant, rival } = at {
            return self.serviced(label, tenant, rival, event);
        }
        if let Event::Crash { kill, .. } = event {
            return crash_cycle(row, label, kill);
        }
        let runtime = config.runtime(run_seed);
        let scratch = event.every().map(|_| Scratch::new());
        let store = scratch.as_ref().map(Scratch::store);
        let stop_at = match (event, at) {
            (Event::Preempt { at: b, .. }, At::Sim(..)) => Some(1 + (seed % b as u64) as usize),
            (Event::Preempt { at: b, .. }, _) => Some(b),
            _ => None,
        };
        let (hashes, stop) = (Mutex::new(Vec::new()), AtomicBool::new(false));
        let hook = |_done: usize, hash: &str| {
            let mut hashes = hashes.lock().unwrap();
            hashes.push(hash.to_string());
            stop.store(stop_at == Some(hashes.len()), Ordering::SeqCst);
        };
        let ckpt = event.every().zip(store.as_ref());
        let ckpt = ckpt.map(|(every, store)| ParallelCheckpoint {
            store,
            config_hash: CONFIG_HASH,
            every,
            on_snapshot: Some(&hook),
            stop: Some(&stop),
        });
        let peers = match (event, at) {
            (Event::Leave { join }, At::Net(2)) => {
                let mut peers = vec![peer(Some(1), false), peer(None, false)];
                peers.extend((0..2 * usize::from(join)).map(|_| peer(None, true)));
                peers
            }
            (Event::Leave { .. }, _) => panic!("{label}: a leave needs two net workers"),
            _ => vec![],
        };
        let tracer = traced.then(Tracer::new).unwrap_or_else(Tracer::disabled);
        let (factory, ckpt) = (config.factory(), ckpt.as_ref());
        let (mut report, workers) = place(factory, &runtime, at, seed, &tracer, ckpt, None, peers);
        if let At::Net(_) = at {
            self.check_peers(&label, event, &report, &workers);
        }
        let snapshot = |hash: String| {
            let store = store.as_ref().expect("a store");
            store.get_snapshot(&hash).expect("a snapshot").0
        };
        let hashes = hashes.into_inner().unwrap();
        let snapshots: Vec<RunSnapshot> = hashes.into_iter().map(snapshot).collect();
        let resume = |on: At, cut: &RunSnapshot| {
            let off = Tracer::disabled();
            let (resumed, _) = place(factory, &runtime, on, seed, &off, None, Some(cut), vec![]);
            assert!(!resumed.preempted, "{label}: resumed on {on:?}");
            resumed
        };
        match event {
            Event::Checkpoint { resume: on, .. } => {
                // several cuts to resume; one is enough to be transparent
                let (barriers, least) = (snapshots.len(), if on.is_empty() { 1 } else { 4 });
                assert!(barriers >= least, "{label}: {barriers} barriers");
                for (k, cut) in snapshots.iter().enumerate() {
                    for &on in on {
                        let digest = levels_digest(&resume(on, cut).report.levels);
                        assert_eq!(Some(digest), expected, "{label}: cut {k} resumed on {on:?}");
                    }
                }
            }
            Event::Preempt { resume: on, .. } => {
                let on = on.unwrap_or(at);
                assert!(report.preempted, "{label}: the stop was ignored");
                assert_eq!(Some(snapshots.len()), stop_at, "{label}: ran past the stop");
                let cut = snapshots.last().expect("the barrier's snapshot");
                let top = *config.n.last().expect("a level");
                assert!(cut.samples_done < top, "{label}: a mid-run cut");
                report = resume(on, cut);
            }
            _ => {}
        }
        // a simulated cell is traced for the counters its invariants read
        if traced && report.clocks.is_none() {
            check_trace(&label, &tracer, event.every().is_some());
        }
        Outcome::of(label, seed, report, tracer)
    }

    /// What a net run's membership came to: nobody moved, every controller
    /// on a worker, unless a worker left (and one joined).
    fn check_peers(
        &self,
        label: &str,
        event: Event,
        report: &RuntimeReport,
        workers: &[NetWorkerReport],
    ) {
        let (first, n_ranks) = (2 + self.config.n.len(), report.report.n_ranks);
        assert_eq!(n_ranks, first + self.config.chains.iter().sum::<usize>());
        let Event::Leave { join } = event else {
            assert_eq!(report.migrations, Some(0), "{label}");
            assert!(workers.iter().all(|r| !r.retired), "{label}");
            let mut hosted: Vec<usize> = workers.iter().flat_map(|r| r.ranks.clone()).collect();
            hosted.sort_unstable();
            let controllers: Vec<usize> = (first..n_ranks).collect();
            return assert_eq!(hosted, controllers, "{label}: hosted ranks");
        };
        assert_eq!(report.migrations, Some(1 + u64::from(join)), "{label}");
        assert!(
            workers[0].retired && !workers[1].retired,
            "{label}: the leaver retires"
        );
        if join {
            let joiners = &workers[2..];
            let joined: Vec<_> = joiners.iter().filter(|r| !r.ranks.is_empty()).collect();
            assert_eq!(joined.len(), 1, "{label}: exactly one joiner admitted");
            assert_eq!(
                joined[0].ranks, workers[0].ranks,
                "{label}: the leaver's rank"
            );
            assert!(
                joiners.iter().any(|r| r.ranks.is_empty() && !r.retired),
                "{label}: the never-admitted joiner must be turned away cleanly"
            );
        }
    }

    /// Exact `N_l`, a finite estimate and, in virtual time, no stream
    /// position served twice and nothing lost before the teardown.
    fn invariants(&self, out: &Outcome, at: At) {
        let (label, run) = (&out.label, report(out));
        for (level, &n) in self.config.n.iter().enumerate() {
            assert_eq!(run.report.levels[level].n_samples, n, "{label}: N_{level}");
        }
        assert!(
            out.estimate.iter().all(|e| e.is_finite()),
            "{label}: {:?}",
            out.estimate
        );
        let Some(clocks) = &run.clocks else { return };
        let reassigned = run.phonebook.reassignments;
        assert_eq!(run.report.reassignments, reassigned, "{label}");
        if self.traced {
            // what the ledger dispatched and what came back differ only by
            // serves still running when the phonebook exited (one per
            // controller at most): a chain's sessions outlive its
            // reassignment, so every write-back that arrives commits
            let (ledger, controllers) = (
                run.phonebook.ledger,
                self.config.chains.iter().sum::<usize>(),
            );
            let (dispatched, returned) = (ledger.serves, out.tracer.counter(Counter::WriteBacks));
            let returned = returned as usize;
            assert!(
                dispatched <= returned + controllers && returned <= dispatched,
                "{label}: {returned} write-backs for {ledger:?}"
            );
        }
        if let At::Instant(..) = at {
            // the phonebook is the first rank to exit, and no message
            // misses its rank before that
            let phonebook_exit = clocks[1];
            assert!(
                run.first_drop.is_none_or(|t| t >= phonebook_exit),
                "{label}: a message was dropped at {:?}, phonebook exit {phonebook_exit}",
                run.first_drop,
            );
        }
    }

    /// The row's job — and its rival's — through one service; a preempt
    /// parks every job, and each then resumes alone while the others stay
    /// parked.
    fn serviced(
        &self,
        label: String,
        tenant: u64,
        rival: Option<(u64, &'static [usize], f64)>,
        event: Event,
    ) -> Outcome {
        let (scratch, tracer) = (Scratch::new(), Tracer::new());
        let mut svc = ServiceConfig::new(&scratch.0);
        svc.lanes = 1 + usize::from(rival.is_some());
        svc.pool_workers = svc.lanes;
        svc.quantum = event.every().unwrap_or(svc.quantum);
        let service = Service::start(svc, &tracer);
        service.register_model("ridge", Arc::new(Ridge));
        let base = self.config.seed.expect("a serviced row has a seed");
        let mut jobs = vec![(tenant, self.config.n, 1.0)];
        jobs.extend(rival);
        let submit = |&(tenant, n, priority): &(u64, &'static [usize], f64)| {
            let config = Config { n, ..self.config }.runtime(base);
            let (model, deadline) = ("ridge".to_string(), 0.0);
            let spec = JobSpec {
                tenant,
                priority,
                model,
                config,
                deadline,
            };
            service.submit(spec).expect("admit").0
        };
        let ids: Vec<u64> = jobs.iter().map(submit).collect();
        if let Event::Preempt { .. } = event {
            for &id in &ids {
                let deadline = Instant::now() + Duration::from_secs(60);
                loop {
                    match service.status(id).expect("the job exists").state {
                        JobState::Running if service.preempt(id) => break,
                        JobState::Running | JobState::Queued => {}
                        other => panic!("{label}: job {id} reached {other:?} before the preempt"),
                    }
                    assert!(Instant::now() < deadline, "{label}: job {id} never ran");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            for &id in &ids {
                let parked = service.wait(id);
                assert_eq!(parked.state, JobState::Preempted, "{label}: job {id} parks");
                assert!(parked.snapshots >= 1, "{label}: {id} left no cut");
                assert_eq!(parked.digest, 0, "{label}: no digest before completion");
            }
            assert_eq!(tracer.counter(Counter::JobsPreempted), ids.len() as u64);
            for (i, &id) in ids.iter().enumerate() {
                assert!(service.resume(id), "{label}: job {id} must be resumable");
                assert_eq!(service.wait(id).state, JobState::Completed, "{label}");
                for &other in &ids[i + 1..] {
                    let parked = service.status(other).expect("the job exists").state;
                    assert_eq!(parked, JobState::Preempted, "{label}: {other} moved");
                }
            }
        }
        let done: Vec<_> = ids.iter().map(|&id| service.wait(id)).collect();
        for (status, &(tenant, n, _)) in done.iter().zip(&jobs) {
            let what = format!("{label}: tenant {tenant}");
            assert_eq!(status.state, JobState::Completed, "{what}");
            assert_eq!(status.seed, tenant_seed(base, tenant), "{what}");
            if Some(tenant) == rival.map(|r| r.0) {
                let alone = pool_digest(&Config { n, ..self.config }.runtime(status.seed));
                assert_eq!(status.digest, alone, "{what}: not its standalone digest");
                assert_ne!(status.digest, done[0].digest, "{what}: a shared stream");
            }
        }
        // measured usage feeds the fair-share books per tenant, and lands
        // in the metrics document, one `per_tenant` row each
        let usage = service.per_tenant_serves();
        assert_eq!(usage.len(), jobs.len(), "{label}: one book per tenant");
        let mut metrics = MetricsSnapshot::capture("service", &tracer);
        let json = metrics.merge_service(&usage).to_json();
        for (tenant, serves) in &usage {
            assert!(*serves > 0, "{label}: tenant {tenant} served nothing");
            let row = format!("{{ \"tenant\": {tenant}, \"serves\": {serves} }}");
            assert!(json.contains(&row), "{label}: no row {row} in:\n{json}");
        }
        assert_eq!(json.matches("\"tenant\":").count(), usage.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        service.shutdown();
        let main = done.into_iter().next().expect("the row's job");
        Outcome::elsewhere(label, main.digest, main.estimate)
    }

    /// The two children of a crash cell, each this row's test again.
    fn crash_child(&self, role: &str) {
        let dir = PathBuf::from(env::var(DIR_ENV).expect("a crash child without its directory"));
        let crash_at = env::var(CRASH_ENV).expect("a crash child without its kill point");
        let crash_at: usize = crash_at.parse().expect("a snapshot ordinal");
        let (Event::Crash { every, .. }, &[at]) = (self.event, self.exact) else {
            panic!("a crash row has one cell")
        };
        let (config, factory) = (self.config.runtime(self.run_seed(0)), self.config.factory());
        let off = Tracer::disabled();
        if role == "crash" {
            let store = RunStore::open(dir.join("store")).expect("open store");
            let snaps = AtomicUsize::new(0);
            let hook = |_done: usize, _hash: &str| {
                if snaps.fetch_add(1, Ordering::SeqCst) + 1 == crash_at {
                    std::process::abort();
                }
            };
            let ckpt = ParallelCheckpoint {
                store: &store,
                config_hash: CONFIG_HASH,
                every,
                on_snapshot: Some(&hook),
                stop: None,
            };
            place(factory, &config, at, 0, &off, Some(&ckpt), None, vec![]);
            panic!("the crash child must abort before its run completes");
        }
        assert_eq!(role, "resume");
        let store = RunStore::open(dir.join("store")).expect("open store");
        let cut = store.latest_snapshot(Some(CONFIG_HASH)).expect("index");
        let (_, cut) = cut.expect("the crashed run left a snapshot");
        assert!(!cut.ledger.sessions.is_empty(), "sessions in the cut");
        let (resumed, _) = place(factory, &config, at, 0, &off, None, Some(&cut), vec![]);
        let digest = levels_digest(&resumed.report.levels).to_string();
        fs::write(dir.join("digest"), digest).expect("write the digest");
    }
}

/// The parent of a crash cell: the crash child must die of the injected
/// `abort()` with exactly `k` snapshots in its store, and the resume
/// child's digest is the cell's.
fn crash_cycle(row: &str, label: String, kill: usize) -> Outcome {
    let (scratch, k) = (Scratch::new(), kill + std::process::id() as usize % 3);
    let dir = scratch.0.to_str().expect("a UTF-8 temp dir");
    let kill_at = k.to_string();
    let child = |role| {
        spawn_self(
            row,
            &[(ROLE_ENV, role), (DIR_ENV, dir), (CRASH_ENV, &kill_at)],
        )
    };
    let crash = child("crash").wait_with_output().expect("crash child");
    // SIGABRT, not a panic of a child that never reached snapshot `k`
    #[cfg(unix)]
    let aborted = std::os::unix::process::ExitStatusExt::signal(&crash.status) == Some(6);
    #[cfg(not(unix))]
    let aborted = !crash.status.success();
    assert!(
        aborted,
        "{label}: no abort at snapshot {k}:\n{}",
        printed(&crash)
    );
    let store = scratch.store();
    let snapshots = store.cuts().expect("index");
    assert_eq!(snapshots.len(), k, "{label}: snapshots before the crash");
    expect_success(child("resume"), "resume child");
    let digest = fs::read_to_string(scratch.0.join("digest")).expect("the resumed digest");
    Outcome::elsewhere(label, digest.parse().expect("a digest"), vec![])
}

/// The tracer saw the run: serve spans, and with checkpoints the barrier.
fn check_trace(label: &str, tracer: &Tracer, checkpoints: bool) {
    let events = tracer.events();
    let saw = |kind: fn(&SpanKind) -> bool| events.iter().any(|e| kind(&e.kind));
    let served = saw(|k| matches!(k, SpanKind::Serve { .. }));
    assert!(served, "{label}: no serve span");
    assert!(tracer.counter(Counter::Serves) > 0, "{label}: no serves");
    if checkpoints {
        let acks = tracer.counter(Counter::BarrierAcks);
        assert!(acks > 0, "{label}: no barrier acks");
        let checkpoint = saw(|k| matches!(k, SpanKind::Checkpoint));
        assert!(checkpoint, "{label}: no checkpoint span");
        assert!(
            saw(|k| matches!(k, SpanKind::Quiesce)),
            "{label}: no quiesce"
        );
    }
}

/// `Run::on` the placement `at`: the report and, on [`At::Net`], each
/// worker's — `peers` (by default `k` plain workers) dialling in from
/// threads of this process.
#[allow(clippy::too_many_arguments)]
fn place(
    factory: &dyn LevelFactory,
    config: &RuntimeConfig,
    at: At,
    seed: u64,
    tracer: &Tracer,
    ckpt: Option<&ParallelCheckpoint<'_>>,
    resume: Option<&RunSnapshot>,
    mut peers: Vec<NetWorkerOptions>,
) -> (RuntimeReport, Vec<NetWorkerReport>) {
    let run = Run::new(factory, config, tracer, ckpt, resume);
    let pool = |workers: usize| run.on(Placement::Pool(&Runtime::new(workers)));
    let sim = |seed: u64, cost: SimCost| run.on(Placement::Sim { cost: &cost, seed });
    let report = match at {
        At::Host => run.on(Placement::Pool(&Runtime::for_host())),
        At::Pool(workers) => pool(workers),
        At::Ranks => pool(config.base.n_ranks()),
        At::Sim(..) => sim(seed, cost(seed)),
        At::Instant(..) => {
            let instant = SimCost {
                phonebook_service_time: 0.0,
                collector_service_time: 0.0,
                ..cost(seed)
            };
            sim(seed, instant)
        }
        At::Reordered => sim(seed + 1000, cost(seed + 1000)),
        At::Net(k) => {
            let driver = NetDriver::bind("127.0.0.1:0").expect("bind loopback");
            if peers.is_empty() {
                peers = (0..k).map(|_| peer(None, false)).collect();
            }
            let initial = peers.iter().filter(|p| !p.join).count();
            for peer in &mut peers {
                peer.connect = driver.local_addr().to_string();
            }
            let off = Tracer::disabled();
            return std::thread::scope(|s| {
                let off = &off;
                let dial =
                    |peer| s.spawn(move || net_worker(&Runtime::for_host(), factory, peer, off));
                let workers: Vec<_> = peers.iter().map(dial).collect();
                let placement = Placement::Net {
                    runtime: &Runtime::for_host(),
                    driver,
                    workers: initial,
                };
                let report = run.on(placement).expect("a live run");
                let workers = workers.into_iter().map(|w| w.join().expect("a net worker"));
                (report, workers.collect())
            });
        }
        At::Serviced { .. } => unreachable!("a service is not a placement of a `Run`"),
    };
    let report = report.unwrap_or_else(|err| panic!("seed {seed}: {err:?}"));
    (report, vec![])
}

// ---------------------------------------------------------------------
// the table
// ---------------------------------------------------------------------

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n: Vec<String> = self.n.iter().map(ToString::to_string).collect();
        write!(f, "{:?} {:?} {}", self.fixture, self.chains, n.join("/"))?;
        if self.burn != [30, 20] || !matches!(self.fixture, Fixture::Ridge) {
            write!(f, ", burn-in {:?}", self.burn)?;
        }
        match (self.balance, self.record) {
            (true, _) => f.write_str(", balanced"),
            (false, false) => f.write_str(", unrecorded"),
            (false, true) => Ok(()),
        }
    }
}

/// The matrix as a Markdown table: one line per row.
fn table() -> String {
    let mut table = String::from(
        "| row | configuration | seed | event | reference | exact | invariant-only |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for (name, row) in ROWS {
        let seed = row.config.seed.map_or("delivery".into(), |s| s.to_string());
        let traced = if row.traced { ", traced" } else { "" };
        let reference = row.reference.map_or(String::new(), |at| format!("{at:?}"));
        let (config, event, exact, invariant) = (row.config, row.event, row.exact, row.invariant);
        let head = format!("`{name}` | {config} | {seed}");
        let cells = format!("{event:?}{traced} | {reference} | {exact:?} | {invariant:?}");
        writeln!(table, "| {head} | {cells} |").expect("a string");
    }
    table
}

#[test]
fn the_design_quotes_the_matrix() {
    let table = table();
    println!("{table}");
    let design = include_str!("../../DESIGN.md");
    assert!(design.contains(&table), "DESIGN §7.4 must quote:\n{table}");
}
