//! **`scaling_live`** — paper-scale rank counts, measured live and set
//! beside the simulated run of the same machines.
//!
//! The worker pool multiplexes virtual ranks over a few threads, so the
//! scaling study that otherwise exists only in virtual time
//! (`fig11_strong_scaling`) can be **measured**. One sweep:
//!
//! 1. **Runs each rank count live** on one reused pool of 8 workers —
//!    64 → 1024 virtual ranks against a synthetic-cost Gaussian hierarchy
//!    (a busy-spin makes each model evaluation ≈ µs-scale so the run is
//!    model-bound like the paper's, not harness-bound), or with
//!    **`--model swe`** 16 → 32 ranks against the real `uq-swe` Tohoku
//!    hierarchy; the model only picks the `LevelFactory` and the sizes.
//! 2. **Simulates the same configuration** (`Placement::Sim`: the sweep
//!    point on a zero-spin stand-in at single-threadedly *calibrated*
//!    per-level times — in-run means are inflated by preemption when
//!    workers exceed cores; nothing measured live is fed back) and
//!    cross-checks three ways — per-level evaluation counts (the
//!    schedule), wall-clock against `max(makespan, busy-time / cores)`
//!    (this machine's compute budget), and flatness of the live/pred
//!    ratio across rank counts (virtualization overhead must not grow
//!    with virtual ranks). The bounds are order-of-magnitude on purpose:
//!    a wall-clock ratio on a shared host says little about the code,
//!    and timing comparisons between commits belong to `benchmark/`.
//!    The output columns keep their `DES` names.
//! 3. **Closes the observability loop** on the first sweep point: the
//!    tracer's per-level busy shares and per-rank busy total against the
//!    simulated `busy_per_level`, controller-side serve counts against
//!    phonebook-side write-backs.
//!
//! Prints the sweep table and writes `results/scaling_live.csv`
//! (`scaling_live_swe.csv` for `--model swe`). **`--trace-out F`**
//! writes a Chrome trace-event JSON (Perfetto / `chrome://tracing`
//! loadable) of the first sweep point plus a short run of the same
//! machines on a pool as wide as the host (sharing one [`Epoch`], so
//! both land on one timeline), **`--metrics-out F`** a
//! `MetricsSnapshot` JSON of the two, and **`--progress`** prints a live
//! progress line during the sweep. Tracing is observation-only:
//! bit-parity with tracing off is pinned by `tests/obs_conformance.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uq_bench::{apportion, render_table, to_csv, write_output, ExpArgs};
use uq_linalg::prob::isotropic_gaussian_logpdf;
use uq_mcmc::proposal::GaussianRandomWalk;
use uq_mcmc::{Proposal, SamplingProblem};
use uq_mlmcmc::LevelFactory;
use uq_parallel::{
    chrome_trace, Counter, Epoch, MetricsSnapshot, Placement, Run, Runtime, RuntimeConfig,
    RuntimeReport, SimCost, Tracer,
};

/// Gaussian level target with a deterministic busy-spin so one model
/// evaluation costs a controllable ~µs amount (the cross-checks need
/// runs that are model-bound, as the paper's are).
struct SpinTarget {
    mean: f64,
    sd: f64,
    spin: u32,
}

impl SamplingProblem for SpinTarget {
    fn dim(&self) -> usize {
        1
    }
    fn log_density(&mut self, theta: &[f64]) -> f64 {
        let mut x = 0.3f64;
        for _ in 0..self.spin {
            x = (x + 1.1).sin();
        }
        std::hint::black_box(x);
        isotropic_gaussian_logpdf(theta, &[self.mean], self.sd)
    }
}

/// Three-level Gaussian hierarchy with per-evaluation synthetic cost
/// `spin[level]` (coarser levels cheaper, like a real mesh hierarchy)
/// and subsampling rates `rho`. With zero spin it is the stand-in the
/// simulated runs evaluate.
struct SpinHierarchy {
    spin: [u32; 3],
    rho: [usize; 3],
}

const MEANS: [f64; 3] = [0.6, 0.9, 1.0];
const SDS: [f64; 3] = [0.65, 0.55, 0.5];
const RHO: [usize; 3] = [5, 3, 0];
/// Worker threads of the one pool every sweep point runs on.
const WORKERS: usize = 8;
const SHARDS: usize = 2;

impl LevelFactory for SpinHierarchy {
    fn n_levels(&self) -> usize {
        3
    }
    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(SpinTarget {
            mean: MEANS[level],
            sd: SDS[level],
            spin: self.spin[level],
        })
    }
    fn proposal(&self, _level: usize) -> Box<dyn Proposal> {
        Box::new(GaussianRandomWalk::new(0.8))
    }
    fn subsampling_rate(&self, level: usize) -> usize {
        self.rho[level]
    }
    fn starting_point(&self, _level: usize) -> Vec<f64> {
        vec![0.0]
    }
}

/// Allocate `n_chains` over levels proportionally to their step demand
/// (own samples + the serving stride feeding the next level up).
fn allocate_chains(n_chains: usize, samples: &[usize], rho: &[usize]) -> Vec<usize> {
    let n_levels = samples.len();
    let weights: Vec<f64> = (0..n_levels)
        .map(|l| {
            let own = samples[l] as f64;
            let serving = if l + 1 < n_levels {
                (rho[l].max(1) * samples[l + 1]) as f64
            } else {
                0.0
            };
            own + serving
        })
        .collect();
    apportion(n_chains, &weights)
}

/// Single-threaded calibration of one level's evaluation cost (seconds).
/// The in-run `EvalCounter` means cannot be used for the simulated run's
/// input: with more worker threads than cores they are inflated by
/// preemption. Adaptive repetition count so expensive models (the SWE
/// hierarchy) calibrate in bounded time.
fn calibrate_eval_secs(h: &dyn LevelFactory, level: usize) -> f64 {
    let mut p = h.problem(level);
    let dim = p.dim();
    let budget = 0.4f64;
    let t = Instant::now();
    let mut reps = 0u32;
    while reps < 2000 && (reps < 8 || t.elapsed().as_secs_f64() < budget) {
        let theta = vec![f64::from(reps) * 1e-4; dim];
        std::hint::black_box(p.log_density(&theta));
        reps += 1;
    }
    (t.elapsed().as_secs_f64() / f64::from(reps)).max(1e-9)
}

/// One rank count: the live run and the simulated run of the same
/// configuration.
struct SweepPoint {
    ranks: usize,
    chains: Vec<usize>,
    live: RuntimeReport,
    /// `sim.report.elapsed` is the makespan on unbounded parallel
    /// hardware (one processor per rank — the paper's cluster setting).
    sim: RuntimeReport,
    /// Simulated evaluation work (virtual busy seconds summed over
    /// levels); on `c` effective cores the live run cannot beat
    /// `sim_busy / c`.
    sim_busy: f64,
    /// `max(makespan, sim_busy / effective cores)`: the simulated run's
    /// prediction of this machine's wall-clock.
    pred_elapsed: f64,
}

impl SweepPoint {
    fn elapsed(&self) -> f64 {
        self.live.report.elapsed
    }
    /// Live wall-clock over the prediction for this machine.
    fn overhead(&self) -> f64 {
        self.elapsed() / self.pred_elapsed
    }
}

fn evals(r: &RuntimeReport) -> Vec<usize> {
    r.report.levels.iter().map(|l| l.evaluations).collect()
}

/// The study: sweep `ranks_list` live on one pool against `h`, simulate
/// every point, cross-check, close the observability loop on the first
/// point and write `csv_name` plus the requested exports.
#[allow(clippy::too_many_lines)]
fn sweep(
    args: &ExpArgs,
    h: &dyn LevelFactory,
    samples: &[usize],
    burn_in: &[usize],
    ranks_list: &[usize],
    estimate_bound: f64,
    csv_name: &str,
) {
    let rho: [usize; 3] = std::array::from_fn(|l| h.subsampling_rate(l));
    let effective_cores = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(WORKERS);
    println!(
        "live sweep: {ranks_list:?} virtual ranks on {WORKERS} workers / {effective_cores} core(s)"
    );
    let eval_time: Vec<f64> = (0..3).map(|l| calibrate_eval_secs(h, l)).collect();
    eprintln!(
        "  calibrated eval cost per level: {:?} µs",
        eval_time
            .iter()
            .map(|s| (s * 1e6).round())
            .collect::<Vec<_>>()
    );
    // what the simulated runs evaluate: the same schedule on a free
    // target, charged the calibrated seconds in virtual time
    let stand_in = SpinHierarchy { spin: [0; 3], rho };
    let cost = SimCost {
        eval_time,
        eval_jitter: 0.0,
        phonebook_service_time: 0.0,
        collector_service_time: 0.0,
        latency: 0.0,
        poll_budget: usize::MAX,
    };

    // one epoch shared by both tracers: the host-wide run and the
    // sweep land on a single timeline in the exported Chrome trace
    let epoch = Epoch::now();
    let t_thread = Tracer::with_epoch(epoch);
    if args.trace_out.is_some() || args.metrics_out.is_some() {
        // the exports cover a second pool width: a short run of the
        // same machines on a pool as wide as the host
        let mut config = RuntimeConfig::new(vec![2_000, 200, 30], vec![2, 2, 1]);
        config.base.burn_in = vec![50, 25, 10];
        config.base.seed = args.seed;
        let run = Run::new(&stand_in, &config, &t_thread, None, None);
        let host = run.on(Placement::Pool(&Runtime::for_host()));
        host.expect("a live run");
    }

    // the whole sweep records into one tracer (what `--progress` polls);
    // the snapshot and the trace are taken after the first point
    let t_rt = Tracer::with_epoch(epoch);
    let progress_stop = Arc::new(AtomicBool::new(false));
    let progress_handle = args.progress.then(|| {
        let (t, stop) = (t_rt.clone(), Arc::clone(&progress_stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                eprintln!("  progress: {}", t.progress_line());
                std::thread::sleep(Duration::from_millis(1000));
            }
        })
    });
    let pool = Runtime::new(WORKERS);
    let mut points: Vec<SweepPoint> = Vec::new();
    let mut obs_snapshot: Option<MetricsSnapshot> = None;
    let mut obs_trace: Option<String> = None;
    for &ranks in ranks_list {
        let overhead_ranks = 2 + samples.len() * SHARDS;
        let chains = allocate_chains(ranks - overhead_ranks, samples, &rho);
        let mut config = RuntimeConfig::new(samples.to_vec(), chains.clone());
        config.base.burn_in = burn_in.to_vec();
        config.base.seed = args.seed;
        config.collector_shards = SHARDS;
        assert_eq!(config.n_ranks(), ranks, "rank budget mismatch");
        // the whole sweep reuses one worker pool; per-point runtime stats
        // describe that point alone (pinned by the uq-parallel
        // reused-pool regression test)
        let live = Run::new(h, &config, &t_rt, None, None);
        let live = live.on(Placement::Pool(&pool)).expect("a live run");
        // divergence, hits and waste are the simulated ledger's own, not
        // measured ones
        let off = Tracer::disabled();
        let placement = Placement::Sim {
            cost: &cost,
            seed: args.seed,
        };
        let sim = Run::new(&stand_in, &config, &off, None, None).on(placement);
        let sim = sim.expect("an unbounded simulated run finishes");
        let sim_busy: f64 = sim.busy_per_level.iter().flatten().sum();
        let pred_elapsed = sim.report.elapsed.max(sim_busy / effective_cores as f64);
        eprintln!(
            "  ranks {ranks:>5}: {:.2}s live, {:.0}% serves speculated",
            live.report.elapsed,
            live.phonebook.ledger.hit_rate() * 100.0
        );
        // exact per-level targets, and a posterior mean inside the
        // model's domain
        for (level, &n) in samples.iter().enumerate() {
            assert_eq!(live.report.levels[level].n_samples, n, "level {level}");
        }
        let est = live.report.expectation();
        assert!(
            est.iter()
                .all(|e| e.is_finite() && e.abs() < estimate_bound),
            "posterior mean left the domain at {ranks} ranks: {est:?}"
        );
        if obs_snapshot.is_none() {
            // captured before the next point starts, so counters and
            // per-level activity describe this point alone
            let mut snap = MetricsSnapshot::capture(&format!("scaling_live ranks={ranks}"), &t_rt);
            snap.merge_ledger(&live.phonebook.ledger);
            snap.merge_runtime(&live.runtime);
            obs_snapshot = Some(snap);
            if args.trace_out.is_some() {
                // one full sweep point covers the pool; the remaining
                // points would only multiply the file size
                obs_trace = Some(chrome_trace(&[
                    ("thread-scheduler", &t_thread),
                    ("cooperative-runtime", &t_rt),
                ]));
            }
        }
        points.push(SweepPoint {
            ranks,
            chains,
            live,
            sim,
            sim_busy,
            pred_elapsed,
        });
    }
    progress_stop.store(true, Ordering::Relaxed);
    if let Some(reporter) = progress_handle {
        reporter.join().expect("progress reporter thread");
    }

    let total_samples: usize = samples.iter().sum();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for p in &points {
        let (book, ledger, rt) = (&p.live.phonebook, &p.live.phonebook.ledger, &p.live.runtime);
        let throughput = total_samples as f64 / p.elapsed();
        rows.push(vec![
            p.ranks.to_string(),
            format!("{:?}", p.chains),
            format!("{:.2}", p.elapsed()),
            format!("{throughput:.0}"),
            format!("{:.2}", p.pred_elapsed),
            format!("{:.2}", p.overhead()),
            format!("{:.3}", p.sim.report.elapsed),
            format!("{:.1}", book.mean_batch()),
            book.max_batch.to_string(),
            p.live.report.reassignments.to_string(),
            ledger.serves.to_string(),
            format!("{:.2}", ledger.diverged_fraction()),
            rt.steals.to_string(),
            format!("{:.2}", ledger.hit_rate()),
            format!("{:.2?}", p.live.report.expectation()),
        ]);
        csv.push(vec![
            p.ranks as f64,
            p.elapsed(),
            throughput,
            p.pred_elapsed,
            p.overhead(),
            p.sim.report.elapsed,
            p.sim_busy,
            book.mean_batch(),
            book.max_batch as f64,
            rt.polls as f64,
            rt.wakeups as f64,
            rt.dropped_sends as f64,
            p.live.report.reassignments as f64,
            ledger.serves as f64,
            ledger.diverged_fraction(),
            rt.steals as f64,
            ledger.spec_launched as f64,
            ledger.spec_hits as f64,
            ledger.spec_misses as f64,
            ledger.hit_rate(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "ranks",
                "chains/level",
                "time[s]",
                "samples/s",
                "DES pred[s]",
                "overhead",
                "DES 1-rank-per-cpu[s]",
                "mean batch",
                "max batch",
                "reassigned",
                "serves",
                "diverged",
                "steals",
                "spec hit",
                "estimate"
            ],
            &rows
        )
    );
    println!(
        "('DES pred' = max(simulated makespan, simulated busy-time / {effective_cores} cores): \
         the prediction for THIS machine;\n 'DES 1-rank-per-cpu' is the cluster-setting \
         makespan the paper measures — unreachable on {effective_cores} core(s).)\n"
    );
    write_output(
        &args.out_dir,
        csv_name,
        &to_csv(
            "ranks,elapsed_s,throughput,des_pred_elapsed_s,overhead_ratio,des_makespan_s,\
             des_busy_s,mean_batch,max_batch,polls,wakeups,dropped_sends,reassignments,\
             ledger_serves,diverged_frac,steals,spec_launched,spec_hits,spec_misses,\
             spec_hit_rate",
            &csv,
        ),
    );

    // cross-check 1 (policy): evaluation counts per level must agree —
    // the pool executes the schedule the simulated run does
    for p in &points {
        let (live, sim) = (evals(&p.live), evals(&p.sim));
        for (level, (&live, &sim)) in live.iter().zip(&sim).enumerate() {
            let ratio = live as f64 / sim.max(1) as f64;
            assert!(
                (0.5..2.0).contains(&ratio),
                "eval-count mismatch at {} ranks, level {level}: live {live} vs simulated {sim}",
                p.ranks
            );
        }
    }
    // cross-check 2 (time): live wall-clock within a loose factor of the
    // prediction for this machine's core budget. Bounds are wide on
    // purpose: the simulated run charges no messaging/scheduling cost,
    // and on shared hosts calibration can land on a quieter core than
    // the sweep — they still catch order-of-magnitude pathologies
    // (dev-run observations sit at 0.7–1.7).
    for p in &points {
        assert!(
            (0.2..6.0).contains(&p.overhead()),
            "live vs simulated wall-clock diverged at {} ranks: {:.2}s vs predicted {:.2}s",
            p.ranks,
            p.elapsed(),
            p.pred_elapsed
        );
    }
    // cross-check 3 (scalability): the overhead ratio must stay roughly
    // flat as virtual ranks grow — hosting 1024 suspended controllers
    // must not degrade the pool (dev-run spread is ~1.5x; the margin
    // absorbs noisy-neighbour variance)
    let ratios: Vec<f64> = points.iter().map(SweepPoint::overhead).collect();
    let (lo, hi) = ratios.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
        (lo.min(r), hi.max(r))
    });
    assert!(
        hi / lo < 4.0,
        "virtualization overhead must stay flat across rank counts: ratios {ratios:?}"
    );
    println!(
        "cross-check vs simulated: eval counts, wall-clock (ratios {:.2?}) and overhead \
         flatness agree ✓",
        ratios
    );

    // ---------------- observability loop closure ----------------
    // the first sweep point's measured activity against what the
    // simulated run of the same schedule charged
    let snap = obs_snapshot.expect("first sweep point captured a snapshot");
    let obs_point = &points[0];

    // (a) cross-source counters: serves are counted controller-side at
    // execution, write-backs phonebook-side at ledger commit. A few
    // ServeDone messages can be in flight when the phonebook shuts
    // down, so allow shutdown skew — but nothing that would indicate a
    // systematic miscount (exact equality on a quiescent run is pinned
    // by tests/obs_conformance.rs)
    let serves = snap.counter(Counter::Serves);
    let write_backs = snap.counter(Counter::WriteBacks);
    assert!(
        write_backs <= serves && serves - write_backs <= serves / 100 + 8,
        "controller-side serves ({serves}) must match phonebook-side write-backs \
         ({write_backs}) up to shutdown in-flight skew"
    );
    assert_eq!(
        snap.counter(Counter::SpecHits),
        obs_point.live.phonebook.ledger.spec_hits as u64,
        "merged snapshot must carry the ledger's speculation stats"
    );

    // (b) per-level activity split: the live tracer's busy share per
    // level (eval + burn-in + serve spans) against the simulated
    // busy_per_level. Shares, not absolute seconds: oversubscription
    // (workers > cores) inflates every measured span by preemption, but
    // uniformly, so the *distribution* across levels must still agree.
    let live_level_busy: f64 = snap.per_level.iter().map(|l| l.busy()).sum();
    let sim_level_busy = obs_point.sim_busy;
    let sim_busy_per_level = obs_point.sim.busy_per_level.as_ref().expect("simulated");
    let mut share_rows = Vec::new();
    for l in &snap.per_level {
        let live_share = l.busy() / live_level_busy;
        let sim_share = sim_busy_per_level[l.level] / sim_level_busy;
        // band-check levels carrying real work; on the top level's sliver
        // (~1% of busy time) only require the activity to exist
        if sim_share >= 0.05 {
            let ratio = live_share / sim_share;
            assert!(
                (0.4..2.5).contains(&ratio),
                "per-level busy share diverged at level {}: live {live_share:.3} vs \
                 simulated {sim_share:.3}",
                l.level
            );
        } else {
            assert!(
                l.busy() > 0.0,
                "level {} saw no recorded activity at all",
                l.level
            );
        }
        share_rows.push(format!(
            "L{} {:.0}%/{:.0}%",
            l.level,
            live_share * 100.0,
            sim_share * 100.0
        ));
    }

    // (c) per-rank utilization: total measured busy seconds across
    // controller ranks against the simulated busy total. Live spans
    // absorb preemption when the pool oversubscribes the cores, so the
    // acceptance band scales with the oversubscription factor.
    let busy_ranks: Vec<_> = snap.per_rank.iter().filter(|r| r.busy() > 0.0).collect();
    let live_busy_total: f64 = busy_ranks.iter().map(|r| r.busy()).sum();
    let mean_util = live_busy_total / (busy_ranks.len() as f64 * obs_point.elapsed());
    let oversub = (WORKERS as f64 / effective_cores as f64).max(1.0);
    let busy_ratio = live_busy_total / sim_level_busy;
    assert!(
        busy_ratio > 0.3 && busy_ratio < 3.0 * oversub,
        "measured busy time diverged from the simulated run: live {live_busy_total:.2}s vs \
         {sim_level_busy:.2}s (ratio {busy_ratio:.2}, oversubscription {oversub:.1})"
    );
    println!(
        "obs cross-check (ranks {}): serves {serves} vs write_backs {write_backs}, \
         busy live/simulated {busy_ratio:.2} (mean rank utilization {:.1}%), level shares \
         live/simulated {} ✓",
        obs_point.ranks,
        mean_util * 100.0,
        share_rows.join(", ")
    );

    // ---------------- observability exports ----------------
    if let Some(name) = &args.trace_out {
        let trace = obs_trace.expect("trace captured at the first sweep point");
        write_output(&args.out_dir, name, &trace);
    }
    if let Some(name) = &args.metrics_out {
        let thread_snap = MetricsSnapshot::capture("thread-scheduler", &t_thread);
        // v3 = v2 plus the multi-tenant service counters (appended to
        // the counters table) and the `per_tenant` serve table (empty
        // outside a service run); every v1/v2 field keeps its position —
        // CI validates both the v3 additions and v1/v2 stability
        let mut doc = String::from("{\n\"schema\": \"uq-obs-metrics-v3\",\n\"thread\": ");
        doc.push_str(thread_snap.to_json().trim_end());
        doc.push_str(",\n\"runtime\": ");
        doc.push_str(snap.to_json().trim_end());
        doc.push_str("\n}\n");
        write_output(&args.out_dir, name, &doc);
    }
    println!("\nscaling_live: all checks passed");
}

fn main() {
    let args = ExpArgs::parse();
    let big = |paper: usize, ci: usize| if args.paper { paper } else { ci };
    match args.model.as_str() {
        "gauss" => {
            // ~31/62/124 µs per evaluation (calibrated): model-bound
            // like the paper's runs, so the simulated run (which only
            // charges evaluation cost) is a meaningful predictor
            let h = SpinHierarchy {
                spin: [2000, 4000, 8000],
                rho: RHO,
            };
            let samples = [big(120_000, 40_000), big(12_000, 4_000), big(1_200, 400)];
            let ranks = [64, 128, 256, 512, 1024];
            let burn_in = [50, 25, 10];
            sweep(
                &args,
                &h,
                &samples,
                &burn_in,
                &ranks,
                3.0,
                "scaling_live.csv",
            );
        }
        "swe" => {
            // genuinely heterogeneous forward-model costs; the posterior
            // mean of the source location must stay in the physical domain
            use uq_swe::tohoku::{Resolution, TsunamiHierarchy};
            let h = TsunamiHierarchy::new(if args.paper {
                Resolution::Reduced
            } else {
                Resolution::Custom([9, 13, 17])
            });
            let samples = [big(2_000, 240), big(400, 48), big(60, 10)];
            let ranks: &[usize] = if args.paper {
                &[32, 64, 128]
            } else {
                &[16, 32]
            };
            let burn_in = [20, 10, 5];
            sweep(
                &args,
                &h,
                &samples,
                &burn_in,
                ranks,
                120_000.0,
                "scaling_live_swe.csv",
            );
        }
        other => panic!("--model must be gauss or swe, got {other}"),
    }
}
