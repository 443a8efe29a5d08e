//! **`scaling_live`** — paper-scale rank counts, measured live.
//!
//! PR 3's cooperative runtime multiplexes virtual ranks over a small
//! worker pool, so the scaling study that previously existed only as a
//! discrete-event *simulation* (`fig11_strong_scaling`) can now be
//! **measured**. This experiment:
//!
//! 1. **Validates by construction** that the runtime executes the same
//!    scheduling policy as the thread scheduler: identical seeds, same
//!    configuration, per-level estimates compared — exact across repeated
//!    single-worker runs (deterministic routing), tolerance-checked
//!    against the thread scheduler (whose interleaving is OS-dependent).
//! 2. **Sweeps rank counts** 64 → 1024 on ≤ 8 worker threads against a
//!    synthetic-cost Gaussian hierarchy (a busy-spin makes each model
//!    evaluation ≈ µs-scale so the run is model-bound like the paper's,
//!    not harness-bound) and records the live ranks-vs-throughput curve
//!    plus phonebook routing-batch statistics.
//! 3. **Cross-checks the simulated run of the same machines**
//!    (`run_simulated`: the sweep point's configuration on a zero-spin
//!    stand-in at single-threadedly *calibrated* per-level times —
//!    in-run means are inflated by preemption when workers exceed cores;
//!    nothing measured live is fed back) three ways — per-level
//!    evaluation counts (the schedule), wall-clock against
//!    `max(makespan, busy-time / cores)` (this machine's compute
//!    budget), and flatness of the live/pred ratio across rank counts
//!    (virtualization overhead must not grow with virtual ranks). The
//!    output columns keep their `DES` names.
//!
//! Writes `results/BENCH_PR3.json` (the PR's perf artifact, uploaded by
//! CI) and `results/scaling_live.csv`.
//!
//! Since PR 4 the runtime serves coarse proposals through the
//! per-requester rewind ledger (a serve costs the server `ρ·(1 +
//! diverged)` dedicated steps, in the simulated run as in the live one)
//! and the worker pool steals work from hot workers — both visible in the
//! reported `serves`/`diverged`/`steals` columns. **`--model swe`** runs
//! the sweep against the real `uq-swe` Tohoku hierarchy instead of the
//! synthetic-cost Gaussian and writes `results/BENCH_PR4.json`.
//!
//! Since PR 5 the phonebooks dispatch **speculative accept-case serves**
//! to idle servers and answer matching requests from the stored
//! precomputation (bit-identical to the serve it replaces, pinned by
//! `tests/speculation_conformance.rs`), with the `LedgerUpdate`
//! write-back folded into the single `ServeDone` reply. The sweep runs
//! on one reused worker pool, simulates each point a second time with
//! speculation off (the PR-4 baseline), asserts the overhead stays at or
//! below that PR's 1.21–1.32 band, and writes `results/BENCH_PR5.json`.
//!
//! Since PR 6 the binary doubles as the **durable-runs** entry point:
//! every artifact is also registered in the content-addressed run store
//! (`results/store/`, see DESIGN.md §7), and the deterministic
//! single-worker checkpoint study runs at the end of the sweep — or
//! standalone via `--checkpoint-every N` / `--crash-at k` / `--resume`,
//! the crash-injection path exercised by
//! `tests/checkpoint_equivalence.rs`. Writes `results/BENCH_PR6.json`.
//!
//! Since PR 8 the run is **observed**: the validation thread-scheduler
//! run and the whole runtime sweep record spans/counters/histograms
//! through `uq_parallel::obs` (sharing one [`Epoch`], so the two
//! backends land on one timeline). The first sweep point closes the
//! loop against the DES — measured per-level busy shares and per-rank
//! utilization against `DesResult::busy_per_level` / busy totals, and
//! controller-side serve counts against phonebook-side write-backs.
//! **`--trace-out F`** writes a Chrome trace-event JSON (Perfetto /
//! `chrome://tracing` loadable) covering both parallel backends,
//! **`--metrics-out F`** a `MetricsSnapshot` JSON (both registered in
//! the run-store manifest), and **`--progress`** prints a live progress
//! line during the sweep. Tracing is observation-only: bit-parity with
//! tracing off is pinned by `tests/obs_conformance.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use uq_bench::{render_table, write_bench, write_bench_csv, BenchJson, ExpArgs};
use uq_linalg::prob::isotropic_gaussian_logpdf;
use uq_mcmc::proposal::GaussianRandomWalk;
use uq_mcmc::{Proposal, SamplingProblem};
use uq_mlmcmc::store::fnv1a;
use uq_mlmcmc::LevelFactory;
use uq_parallel::roles::RuntimeReport;
use uq_parallel::{
    chrome_trace, levels_digest, run_net_worker, run_parallel, run_runtime, run_runtime_ckpt,
    run_runtime_on, run_simulated, Counter, Epoch, MetricsSnapshot, NetDriver, NetDriverOptions,
    NetWorkerOptions, ParallelCheckpoint, ParallelConfig, Runtime, RuntimeConfig, SimCost, Tracer,
};

/// Gaussian level target with a deterministic busy-spin so one model
/// evaluation costs a controllable ~µs amount (the DES cross-check needs
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

/// Two-level Gaussian hierarchy for the durable-runs study: with two
/// levels the serving chains are base chains (no nested coarse
/// requests), the regime where checkpointing is provably transparent —
/// see DESIGN.md §7.
struct CkptHierarchy;

impl LevelFactory for CkptHierarchy {
    fn n_levels(&self) -> usize {
        2
    }
    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(SpinTarget {
            mean: [0.5, 1.0][level],
            sd: [0.6, 0.5][level],
            spin: 0,
        })
    }
    fn proposal(&self, _level: usize) -> Box<dyn Proposal> {
        Box::new(GaussianRandomWalk::new(0.8))
    }
    fn subsampling_rate(&self, level: usize) -> usize {
        [3, 0][level]
    }
    fn starting_point(&self, _level: usize) -> Vec<f64> {
        vec![0.0]
    }
}

/// Allocate `n_chains` over levels proportionally to their step demand
/// (own samples + the serving stride feeding the next level up).
fn allocate_chains(n_chains: usize, samples: &[usize], rho: &[usize]) -> Vec<usize> {
    let n_levels = samples.len();
    assert!(n_chains >= n_levels);
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
    let total: f64 = weights.iter().sum();
    let mut out = vec![1usize; n_levels];
    let spare = n_chains - n_levels;
    let mut assigned = 0usize;
    let mut fracs: Vec<(f64, usize)> = Vec::new();
    for (l, w) in weights.iter().enumerate() {
        let share = w / total * spare as f64;
        let whole = share.floor() as usize;
        out[l] += whole;
        assigned += whole;
        fracs.push((share - whole as f64, l));
    }
    // largest-remainder top-up to hit the budget exactly
    fracs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    for &(_, l) in fracs.iter().take(spare - assigned) {
        out[l] += 1;
    }
    debug_assert_eq!(out.iter().sum::<usize>(), n_chains);
    out
}

struct SweepPoint {
    ranks: usize,
    chains: Vec<usize>,
    elapsed: f64,
    throughput: f64,
    /// DES-predicted makespan on unbounded parallel hardware (one
    /// processor per rank — the paper's cluster setting).
    des_makespan: f64,
    /// DES-predicted total evaluation work (busy time summed over
    /// chains); on `c` effective cores the live run cannot beat
    /// `busy / c`.
    des_busy: f64,
    /// `max(des_makespan, des_busy / effective_cores)`: the DES's
    /// prediction of this machine's wall-clock.
    pred_elapsed: f64,
    evals: Vec<usize>,
    des_evals: Vec<usize>,
    mean_batch: f64,
    max_batch: usize,
    polls: usize,
    wakeups: usize,
    dropped_sends: usize,
    reassignments: usize,
    /// Rewind-ledger serves committed (real serves + speculative hits).
    ledger_serves: usize,
    /// Fraction of serves that ran the separate pairing leg.
    diverged_frac: f64,
    /// Runnable ranks stolen by idle workers.
    steals: usize,
    /// Speculative serves dispatched to idle servers (PR 5).
    spec_launched: usize,
    /// Serves answered from a stored speculation.
    spec_hits: usize,
    /// Speculations discarded (anchor mismatch / stale).
    spec_misses: usize,
    /// `spec_hits / serves`.
    hit_rate: f64,
    /// The same prediction with speculation switched off: the PR-4
    /// schedule, the baseline that PR's overhead band was measured
    /// against.
    pred_nospec_elapsed: f64,
    /// DES virtual-time busy seconds split per level — the prediction
    /// the live tracer's per-level activity is checked against (PR 8).
    des_busy_per_level: Vec<f64>,
}

/// Single-threaded calibration of one level's evaluation cost (seconds).
/// The in-run `EvalCounter` means cannot be used for the DES input: with
/// more worker threads than cores they are inflated by preemption.
/// Adaptive repetition count so expensive models (the SWE hierarchy)
/// calibrate in bounded time.
fn calibrate_eval_secs(h: &dyn LevelFactory, level: usize, theta_dim: usize) -> f64 {
    let mut p = h.problem(level);
    let budget = 0.4f64;
    let t = Instant::now();
    let mut reps = 0u32;
    while reps < 2000 && (reps < 8 || t.elapsed().as_secs_f64() < budget) {
        let theta = vec![f64::from(reps) * 1e-4; theta_dim];
        std::hint::black_box(p.log_density(&theta));
        reps += 1;
    }
    (t.elapsed().as_secs_f64() / f64::from(reps)).max(1e-9)
}

#[allow(clippy::too_many_arguments)]
fn run_sweep_point(
    pool: &Runtime,
    h: &dyn LevelFactory,
    rho: [usize; 3],
    eval_time: &[f64],
    ranks: usize,
    effective_cores: usize,
    shards: usize,
    samples: &[usize],
    burn_in: &[usize],
    seed: u64,
    tracer: &Tracer,
) -> (RuntimeReport, SweepPoint) {
    let overhead = 2 + samples.len() * shards;
    let chains = allocate_chains(ranks - overhead, samples, &rho);
    let mut config = RuntimeConfig::new(samples.to_vec(), chains.clone());
    config.base.burn_in = burn_in.to_vec();
    config.base.seed = seed;
    config.n_workers = pool.n_workers();
    config.collector_shards = shards;
    assert_eq!(config.n_ranks(), ranks, "rank budget mismatch");
    // the whole sweep reuses one worker pool; per-point runtime stats
    // must describe that point alone (pinned by the uq-parallel
    // reused-pool regression test)
    let r = run_runtime_on(pool, h, &config, tracer);
    // the same machines in virtual time, with speculation and with the
    // non-speculative PR-4 schedule the historical 1.21–1.32 overhead
    // band was measured against: this point's configuration on the
    // zero-spin stand-in at the calibrated per-level seconds; divergence,
    // hits and waste are the simulated ledger's own, not measured ones
    let stand_in = SpinHierarchy { spin: [0; 3], rho };
    let cost = SimCost {
        eval_time: eval_time.to_vec(),
        eval_jitter: 0.0,
        phonebook_service_time: 0.0,
        collector_service_time: 0.0,
        latency: 0.0,
        poll_budget: usize::MAX,
    };
    let simulate = |speculation: bool| {
        let mut config = config.clone();
        config.base.speculation = speculation;
        let off = Tracer::disabled();
        run_simulated(&stand_in, &config, &off, &cost, seed, None, None)
            .expect("an unbounded simulated run finishes")
    };
    let (des, des_nospec) = (simulate(true), simulate(false));
    let des_busy: f64 = des.busy_per_level.iter().sum();
    let nospec_busy: f64 = des_nospec.busy_per_level.iter().sum();
    let (des_makespan, nospec_makespan) = (des.run.report.elapsed, des_nospec.run.report.elapsed);
    let total_samples: usize = samples.iter().sum();
    let ledger = r.phonebook.ledger;
    let point = SweepPoint {
        ranks,
        chains,
        elapsed: r.report.elapsed,
        throughput: total_samples as f64 / r.report.elapsed,
        des_makespan,
        des_busy,
        pred_elapsed: des_makespan.max(des_busy / effective_cores as f64),
        pred_nospec_elapsed: nospec_makespan.max(nospec_busy / effective_cores as f64),
        evals: r.report.levels.iter().map(|l| l.evaluations).collect(),
        des_evals: des
            .run
            .report
            .levels
            .iter()
            .map(|l| l.evaluations)
            .collect(),
        mean_batch: r.phonebook.mean_batch(),
        max_batch: r.phonebook.max_batch,
        polls: r.runtime.polls,
        wakeups: r.runtime.wakeups,
        dropped_sends: r.runtime.dropped_sends,
        reassignments: r.report.reassignments,
        ledger_serves: ledger.serves,
        diverged_frac: ledger.diverged_fraction(),
        steals: r.runtime.steals,
        spec_launched: ledger.spec_launched,
        spec_hits: ledger.spec_hits,
        spec_misses: ledger.spec_misses,
        hit_rate: ledger.hit_rate(),
        des_busy_per_level: des.busy_per_level,
    };
    (r, point)
}

/// The `--model swe` study (PR 4): the runtime scaling sweep driven by
/// the real `uq-swe` Tohoku hierarchy instead of the synthetic-cost
/// Gaussian — per-requester ledger serving and work stealing measured
/// against genuinely heterogeneous forward-model costs. Writes
/// `results/BENCH_PR4.json`.
#[allow(clippy::too_many_lines)]
fn swe_study(args: &ExpArgs) {
    use uq_swe::tohoku::{Resolution, TsunamiHierarchy};
    let workers = 8usize;
    let resolution = if args.paper {
        Resolution::Reduced
    } else {
        Resolution::Custom([9, 13, 17])
    };
    let h = TsunamiHierarchy::new(resolution);
    let rho: [usize; 3] = std::array::from_fn(|l| h.subsampling_rate(l));
    let samples = if args.paper {
        vec![2_000usize, 400, 60]
    } else {
        vec![240usize, 48, 10]
    };
    let burn_in = vec![20usize, 10, 5];
    let shards = 2usize;
    let ranks_list = if args.paper {
        vec![32usize, 64, 128]
    } else {
        vec![16usize, 32]
    };
    let effective_cores = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(workers);

    println!("scaling_live --model swe — Tohoku hierarchy on the cooperative runtime (PR 4)\n");
    let eval_time: Vec<f64> = (0..3).map(|l| calibrate_eval_secs(&h, l, 2)).collect();
    eprintln!(
        "  calibrated eval cost per level: {:?} ms",
        eval_time
            .iter()
            .map(|s| (s * 1e5).round() / 1e2)
            .collect::<Vec<_>>()
    );
    let pool = Runtime::new(workers);
    let mut points: Vec<(SweepPoint, Vec<f64>)> = Vec::new();
    for &ranks in &ranks_list {
        let t0 = Instant::now();
        let (r, point) = run_sweep_point(
            &pool,
            &h,
            rho,
            &eval_time,
            ranks,
            effective_cores,
            shards,
            &samples,
            &burn_in,
            args.seed,
            &Tracer::disabled(),
        );
        eprintln!(
            "  ranks {ranks:>4}: {:.2}s live ({:.2}s wall), {} ledger serves \
             ({:.0}% diverged, {:.0}% speculated), {} steals",
            point.elapsed,
            t0.elapsed().as_secs_f64(),
            point.ledger_serves,
            point.diverged_frac * 100.0,
            point.hit_rate * 100.0,
            point.steals
        );
        // the exact per-level targets must be hit and the posterior mean
        // of the source location must stay in the physical domain
        for (level, &n) in samples.iter().enumerate() {
            assert_eq!(r.report.levels[level].n_samples, n, "level {level}");
        }
        let est = r.report.expectation();
        assert!(
            est.iter().all(|e| e.is_finite() && e.abs() < 120_000.0),
            "posterior-mean source location left the domain: {est:?}"
        );
        points.push((point, est));
    }

    let mut rows = Vec::new();
    for (p, est) in &points {
        rows.push(vec![
            p.ranks.to_string(),
            format!("{:?}", p.chains),
            format!("{:.2}", p.elapsed),
            format!("{:.1}", p.throughput),
            format!("{:.2}", p.pred_elapsed),
            format!("{:.2}", p.elapsed / p.pred_elapsed),
            p.ledger_serves.to_string(),
            format!("{:.2}", p.diverged_frac),
            p.steals.to_string(),
            format!("({:.0}, {:.0})", est[0], est[1]),
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
                "serves",
                "diverged",
                "steals",
                "E[source m]"
            ],
            &rows
        )
    );

    let sweep: Vec<String> = points
        .iter()
        .map(|(p, est)| {
            format!(
                "{{ \"ranks\": {}, \"chains\": {:?}, \"elapsed_s\": {:.3}, \
                 \"throughput_samples_per_s\": {:.2}, \"des_pred_elapsed_s\": {:.3}, \
                 \"overhead_ratio\": {:.3}, \"evals_per_level\": {:?}, \
                 \"des_evals_per_level\": {:?}, \"ledger_serves\": {}, \"diverged_frac\": {:.3}, \
                 \"steals\": {}, \"mean_batch\": {:.2}, \"estimate\": [{:.3}, {:.3}] }}",
                p.ranks,
                p.chains,
                p.elapsed,
                p.throughput,
                p.pred_elapsed,
                p.elapsed / p.pred_elapsed,
                p.evals,
                p.des_evals,
                p.ledger_serves,
                p.diverged_frac,
                p.steals,
                p.mean_batch,
                est[0],
                est[1]
            )
        })
        .collect();
    let mut json = BenchJson::new();
    json.field("pr", 4)
        .field_str("model", "swe")
        .field("resolution", format!("{:?}", resolution.cells(2)))
        .field("workers", workers)
        .field("effective_cores", effective_cores)
        .field("collector_shards", shards)
        .field(
            "eval_time_ms",
            format!(
                "{:?}",
                eval_time.iter().map(|s| s * 1e3).collect::<Vec<_>>()
            ),
        )
        .array("sweep", &sweep);
    write_bench(&args.out_dir, "BENCH_PR4.json", &json.finish());
    println!("\nscaling_live --model swe: all checks passed");
}

/// The durable-runs study (PR 6): checkpoint the deterministic
/// single-worker runtime configuration into the content-addressed run
/// store every `--checkpoint-every` recorded top-level corrections
/// (default 12), then prove the run is restartable:
///
/// * default invocation — run checkpointed, rerun uninterrupted, resume
///   from the latest snapshot, and require all three reports
///   bit-identical;
/// * `--crash-at k` — abort the process at the k-th snapshot (the
///   crash-injection harness in `tests/checkpoint_equivalence.rs`
///   drives this, then re-launches with `--resume`);
/// * `--resume` — restart from the latest matching snapshot in the
///   store and still compare against an uninterrupted in-process run.
///
/// Writes `results/BENCH_PR6.json`, a pure function of the final report
/// (estimates and their exact bit patterns, no timing), so a resumed
/// run reproduces the uninterrupted run's artifact byte-for-byte.
fn checkpoint_study(args: &ExpArgs) {
    let every = if args.checkpoint_every > 0 {
        args.checkpoint_every
    } else {
        25
    };
    let h = CkptHierarchy;
    let samples = vec![900usize, 150];
    let chains = vec![1usize, 1];
    let burn_in = vec![40usize, 20];
    let mut cfg = RuntimeConfig::new(samples.clone(), chains.clone());
    cfg.base.burn_in = burn_in.clone();
    cfg.base.seed = args.seed;
    // the checkpoint-transparent regime (DESIGN.md §7): snapshots pin
    // chains to levels (no load balancing), one worker makes the
    // cooperative schedule deterministic, and with two levels the
    // serving chains are base chains — their ledger sessions see one
    // requester each, so the quiesce pauses cannot reorder any serve
    // substream and a checkpointed run is bit-identical to an
    // uninterrupted one
    cfg.base.load_balancing = false;
    cfg.base.record_samples = true;
    cfg.n_workers = 1;
    let store = args.run_store();
    let desc = format!(
        "scaling_live ckpt v1 samples={samples:?} chains={chains:?} burn={burn_in:?} seed={}",
        args.seed
    );
    let config_hash = fnv1a(desc.as_bytes());

    println!(
        "\ndurable runs: snapshot every {every} top-level corrections -> {}",
        store.root().display()
    );
    let n_snaps = AtomicUsize::new(0);
    let hook = |done: usize, hash: &str| {
        let k = n_snaps.fetch_add(1, Ordering::SeqCst) + 1;
        eprintln!("  snapshot {k}: {hash} @ {done} top-level corrections");
        if args.crash_at == Some(k) {
            eprintln!("  --crash-at {k}: aborting mid-run");
            std::process::abort();
        }
    };
    let ckpt = ParallelCheckpoint {
        store: &store,
        config_hash,
        every,
        on_snapshot: Some(&hook),
        stop: None,
    };

    let report = if args.resume {
        let (hash, snap) = store
            .latest_snapshot(Some(config_hash))
            .expect("run store must be readable")
            .expect("--resume: no snapshot for this configuration in the store");
        println!(
            "  resuming from snapshot {hash} ({} top-level corrections done)",
            snap.samples_done
        );
        run_runtime_ckpt(&h, &cfg, &Tracer::disabled(), Some(&ckpt), Some(&snap))
    } else {
        run_runtime_ckpt(&h, &cfg, &Tracer::disabled(), Some(&ckpt), None)
    };
    assert!(
        n_snaps.load(Ordering::SeqCst) > 0 || args.resume,
        "the checkpointed run must take at least one snapshot"
    );

    // whether fresh, resumed after --crash-at, or checkpointed along
    // the way: the report must match an uninterrupted run exactly
    let uninterrupted = run_runtime(&h, &cfg, &Tracer::disabled());
    assert_identical(&report, &uninterrupted);
    if !args.resume {
        let (hash, snap) = store
            .latest_snapshot(Some(config_hash))
            .expect("run store must be readable")
            .expect("no snapshot recorded");
        let resumed = run_runtime_ckpt(&h, &cfg, &Tracer::disabled(), None, Some(&snap));
        assert_identical(&resumed, &uninterrupted);
        println!("  resume from snapshot {hash}: bit-identical to the uninterrupted run ✓");
    } else {
        println!("  resumed run: bit-identical to the uninterrupted run ✓");
    }

    let levels: Vec<String> = report
        .report
        .levels
        .iter()
        .enumerate()
        .map(|(level, l)| {
            format!(
                "{{ \"level\": {level}, \"n\": {}, \"mean_correction\": {:?}, \
                 \"mean_bits\": {:?}, \"var_bits\": {:?} }}",
                l.n_samples,
                l.mean_correction,
                l.mean_correction
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                l.var_correction
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            )
        })
        .collect();
    let mut json = BenchJson::new();
    json.field("pr", 6)
        .field_str("backend", "runtime")
        .field_str("config", &format!("{config_hash:016x}"))
        .field("seed", args.seed)
        .field("n_workers", 1)
        .field("samples_per_level", format!("{samples:?}"))
        .field("chains_per_level", format!("{chains:?}"))
        .field("burn_in", format!("{burn_in:?}"))
        .array("levels", &levels)
        .field("estimate", format!("{:?}", report.report.expectation()));
    write_bench(&args.out_dir, "BENCH_PR6.json", &json.finish());
    println!("durable runs: all checks passed");
}

/// The multi-process study (PR 9). `--net driver` binds `--listen`,
/// assembles one logical universe from `--net-workers` worker
/// processes over TCP, runs the pinned deterministic regime, asserts
/// bit-identity against the in-process thread scheduler (exact sample
/// counts plus estimate tolerance when elastic membership migrated
/// ranks mid-run) and writes `BENCH_PR9.json`. `--net worker` connects
/// to `--connect`, hosts whatever ranks the driver assigns and exits —
/// optionally joining elastically (`--join`) or departing at a
/// checkpoint barrier (`--leave-at N`).
fn net_study(args: &ExpArgs, role: &str) {
    // the deterministic bit-parity regime from
    // tests/net_conformance.rs — one chain per level, load balancing
    // off, per-sample recording on — on the 2-level zero-spin
    // hierarchy: any transport reordering or payload corruption moves
    // the digest, not just the estimate. Only the driver's copy is
    // authoritative; workers receive it over the wire in `Assign`.
    let mut config = ParallelConfig::new(vec![3000, 600], vec![1, 1]);
    config.burn_in = vec![50, 20];
    config.seed = args.seed;
    config.load_balancing = false;
    config.record_samples = true;
    config.speculation = true;

    if role == "worker" {
        let tracer = Tracer::with_epoch(Epoch::now());
        let opts = NetWorkerOptions {
            connect: args.connect.clone(),
            join: args.join,
            leave_at_barrier: args.leave_at,
        };
        let report = run_net_worker(Arc::new(CkptHierarchy), &opts, &tracer);
        let snap = MetricsSnapshot::capture("net worker", &tracer);
        println!(
            "net worker done: ranks {:?}, retired {}, frames out/in {}/{}",
            report.ranks,
            report.retired,
            snap.counter(Counter::NetFramesOut),
            snap.counter(Counter::NetFramesIn)
        );
        return;
    }
    assert_eq!(role, "driver", "--net must be driver or worker");

    // in-process baseline on the identical config: the digest the net
    // run must reproduce and the single-process wall-clock its
    // transport overhead is measured against
    let t0 = Instant::now();
    let base = run_parallel(&CkptHierarchy, &config, &Tracer::disabled());
    let base_elapsed = t0.elapsed().as_secs_f64();
    let base_digest = levels_digest(&base.levels);

    let tracer = Tracer::with_epoch(Epoch::now());
    let driver = NetDriver::bind(&args.listen).expect("cannot bind --listen address");
    println!(
        "net driver on {} awaiting {} worker process(es)",
        driver.local_addr(),
        args.net_workers
    );
    let opts = NetDriverOptions {
        workers: args.net_workers,
        every: args.checkpoint_every,
        store: (args.checkpoint_every > 0).then(|| Arc::new(args.run_store())),
        config_hash: fnv1a(format!("net-study seed={}", args.seed).as_bytes()),
    };
    let t1 = Instant::now();
    let net = driver.run(Arc::new(CkptHierarchy), &config, &opts, &tracer);
    let net_elapsed = t1.elapsed().as_secs_f64();
    let net_digest = levels_digest(&net.report.levels);

    // sample counts are exact regardless of membership churn: a leave
    // or join migrates chains, it never drops or duplicates samples
    for (level, &n) in config.samples_per_level.iter().enumerate() {
        assert_eq!(
            net.report.levels[level].n_samples, n,
            "level {level} sample count drifted across the transport"
        );
    }
    let base_est = base.expectation()[0];
    let net_est = net.report.expectation()[0];
    if net.migrations == 0 {
        assert_eq!(
            net_digest, base_digest,
            "net run over TCP diverged from the in-process scheduler"
        );
        println!("net vs in-process: digests identical ✓");
    } else {
        // ranks crossed process boundaries mid-run; the estimate must
        // still agree with the uninterrupted baseline statistically
        assert!(
            (net_est - base_est).abs() < 0.1,
            "elastic net estimate {net_est:.4} drifted from baseline {base_est:.4}"
        );
        println!(
            "net vs in-process: {} migration(s), estimate {net_est:.4} vs {base_est:.4} ✓",
            net.migrations
        );
    }

    let snap = MetricsSnapshot::capture("net driver", &tracer);
    let mut json = BenchJson::new();
    json.field("pr", 9)
        .field_str("transport", "tcp")
        .field("workers", args.net_workers)
        .field("checkpoint_every", args.checkpoint_every)
        .field("n_samples", format!("{:?}", config.samples_per_level))
        .field("inprocess_elapsed_s", format!("{base_elapsed:.3}"))
        .field("net_elapsed_s", format!("{net_elapsed:.3}"))
        .field(
            "net_overhead_ratio",
            format!("{:.3}", net_elapsed / base_elapsed),
        )
        .field("digest_match", net_digest == base_digest)
        .field("migrations", net.migrations)
        .field("dropped_sends", net.dropped_sends)
        .field("net_frames_out", snap.counter(Counter::NetFramesOut))
        .field("net_frames_in", snap.counter(Counter::NetFramesIn))
        .field("net_bytes_out", snap.counter(Counter::NetBytesOut))
        .field("net_bytes_in", snap.counter(Counter::NetBytesIn))
        .field("net_reconnects", snap.counter(Counter::NetReconnects))
        .field("estimate", format!("{net_est:.6}"));
    write_bench(&args.out_dir, "BENCH_PR9.json", &json.finish());
    println!("net study: all checks passed");
}

/// Bit-exact equality of two runtime reports (estimates, variances and
/// recorded sample streams; evaluation counters and timing excluded —
/// a resumed run legitimately repeats the rebuild evaluations).
fn assert_identical(a: &RuntimeReport, b: &RuntimeReport) {
    assert_eq!(a.report.levels.len(), b.report.levels.len());
    for (x, y) in a.report.levels.iter().zip(&b.report.levels) {
        assert_eq!(x.n_samples, y.n_samples);
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x.mean_correction), bits(&y.mean_correction));
        assert_eq!(bits(&x.var_correction), bits(&y.var_correction));
        assert_eq!(x.theta_samples, y.theta_samples);
        assert_eq!(x.correction_pairs, y.correction_pairs);
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = ExpArgs::parse();
    if let Some(role) = args.net.clone() {
        // dedicated multi-process invocation: the CI net smoke jobs
        // drive a driver process plus N worker processes standalone
        net_study(&args, &role);
        return;
    }
    if args.model == "swe" {
        swe_study(&args);
        return;
    }
    assert_eq!(args.model, "gauss", "--model must be gauss or swe");
    if args.checkpoint_every > 0 || args.resume || args.crash_at.is_some() {
        // dedicated durable-runs invocation: the crash-injection
        // harness (and `ci.yml`) drives these flags standalone
        checkpoint_study(&args);
        return;
    }
    let workers = 8usize;

    // ---------------- 1. validation ----------------
    // (cheap targets, no spin: this part compares *estimates*, not time)
    let h_plain = SpinHierarchy {
        spin: [0, 0, 0],
        rho: RHO,
    };
    let val_samples = if args.paper {
        vec![60_000usize, 6_000, 600]
    } else {
        vec![20_000usize, 2_000, 300]
    };
    let val_chains = vec![2usize, 2, 1];
    let val_burn = vec![200usize, 100, 50];

    println!("scaling_live — cooperative-runtime scaling study (PR 3)\n");
    println!("validation: runtime vs thread scheduler, identical seeds");
    // one epoch shared by every tracer in this process: the thread
    // validation run and the runtime sweep land on a single timeline in
    // the exported Chrome trace (observation never perturbs the runs —
    // bit-parity is pinned by tests/obs_conformance.rs)
    let epoch = Epoch::now();
    let t_thread = Tracer::with_epoch(epoch);
    let mut sched_cfg = ParallelConfig::new(val_samples.clone(), val_chains.clone());
    sched_cfg.burn_in = val_burn.clone();
    sched_cfg.seed = args.seed;
    let sched = run_parallel(&h_plain, &sched_cfg, &t_thread);

    let mut rt_cfg = RuntimeConfig::new(val_samples.clone(), val_chains.clone());
    rt_cfg.base.burn_in = val_burn.clone();
    rt_cfg.base.seed = args.seed;
    rt_cfg.n_workers = 4;
    let rt = run_runtime(&h_plain, &rt_cfg, &Tracer::disabled());

    let mut val_rows = Vec::new();
    let mut val_items: Vec<String> = Vec::new();
    for level in 0..val_samples.len() {
        let a = &sched.levels[level];
        let b = &rt.report.levels[level];
        assert_eq!(a.n_samples, b.n_samples, "level {level} sample counts");
        let diff = (a.mean_correction[0] - b.mean_correction[0]).abs();
        // both are MC estimates of the same correction from independent
        // interleavings: tolerance from their own reported variances,
        // inflated for level-0 autocorrelation
        let se = (a.var_correction[0] / a.n_samples as f64
            + b.var_correction[0] / b.n_samples as f64)
            .sqrt();
        let tol = (20.0 * se).max(0.02);
        assert!(
            diff < tol,
            "level {level}: scheduler {:.4} vs runtime {:.4} (diff {diff:.4} > tol {tol:.4})",
            a.mean_correction[0],
            b.mean_correction[0]
        );
        val_rows.push(vec![
            level.to_string(),
            format!("{}", a.n_samples),
            format!("{:.4}", a.mean_correction[0]),
            format!("{:.4}", b.mean_correction[0]),
            format!("{:.4}", diff),
            format!("{:.4}", tol),
        ]);
        val_items.push(format!(
            "{{ \"level\": {level}, \"n\": {}, \"scheduler_mean\": {:.6}, \
             \"runtime_mean\": {:.6}, \"diff\": {:.6}, \"tol\": {:.6} }}",
            a.n_samples, a.mean_correction[0], b.mean_correction[0], diff, tol
        ));
    }
    println!(
        "{}",
        render_table(
            &["level", "N", "scheduler", "runtime", "|diff|", "tol"],
            &val_rows
        )
    );

    // determinism: single worker + no load balancing = deterministic
    // routing, so repeated runs must agree exactly
    let mut det_cfg = RuntimeConfig::new(vec![3000, 600, 150], val_chains.clone());
    det_cfg.base.burn_in = vec![50, 20, 10];
    det_cfg.base.seed = args.seed;
    det_cfg.base.load_balancing = false;
    det_cfg.n_workers = 1;
    let d1 = run_runtime(&h_plain, &det_cfg, &Tracer::disabled());
    let d2 = run_runtime(&h_plain, &det_cfg, &Tracer::disabled());
    for (l1, l2) in d1.report.levels.iter().zip(&d2.report.levels) {
        assert_eq!(
            l1.mean_correction, l2.mean_correction,
            "single-worker runs must be bit-identical"
        );
        assert_eq!(l1.n_samples, l2.n_samples);
    }
    println!("determinism: single-worker repeat is bit-identical ✓");

    // speculation conformance spot-check (the full suite lives in
    // tests/speculation_conformance.rs): a committed speculation is
    // bit-identical to the serve it replaces, so on a single worker with
    // one chain per level (single producer per collector, level-0
    // serving stack — the regime where serves are pure functions of
    // their lease) switching speculation off must not move a single bit
    let mut spec_cfg = RuntimeConfig::new(vec![3000, 600], vec![1, 1]);
    spec_cfg.base.burn_in = vec![50, 20];
    spec_cfg.base.seed = args.seed;
    spec_cfg.base.load_balancing = false;
    spec_cfg.n_workers = 1;
    let mut nospec_cfg = spec_cfg.clone();
    nospec_cfg.base.speculation = false;
    let s1 = run_runtime(&h_plain, &spec_cfg, &Tracer::disabled());
    let s0 = run_runtime(&h_plain, &nospec_cfg, &Tracer::disabled());
    for (l1, l0) in s1.report.levels.iter().zip(&s0.report.levels) {
        assert_eq!(
            l1.mean_correction, l0.mean_correction,
            "speculation on/off must be bit-identical"
        );
    }
    assert!(
        s1.phonebook.ledger.spec_hits > 0,
        "the speculative path must actually be exercised: {:?}",
        s1.phonebook.ledger
    );
    assert_eq!(s0.phonebook.ledger.spec_launched, 0);
    println!(
        "speculation: on/off bit-identical ({} of {} serves committed speculatively) ✓\n",
        s1.phonebook.ledger.spec_hits, s1.phonebook.ledger.serves
    );

    // ---------------- 2. live scaling sweep ----------------
    // ~31/62/124 µs per evaluation (calibrated): model-bound like the
    // paper's runs, so the DES (which only models evaluation cost) is a
    // meaningful predictor
    let spin = [2000u32, 4000, 8000];
    let h = SpinHierarchy { spin, rho: RHO };
    let samples = if args.paper {
        vec![120_000usize, 12_000, 1_200]
    } else {
        vec![40_000usize, 4_000, 400]
    };
    let burn_in = vec![50usize, 25, 10];
    let shards = 2usize;
    let ranks_list = [64usize, 128, 256, 512, 1024];

    let effective_cores = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(workers);
    println!(
        "live sweep: {} virtual ranks on {workers} workers / {effective_cores} core(s) \
         (spin {spin:?})",
        ranks_list
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("/")
    );
    let eval_time: Vec<f64> = (0..3).map(|l| calibrate_eval_secs(&h, l, 1)).collect();
    eprintln!(
        "  calibrated eval cost per level: {:?} µs",
        eval_time
            .iter()
            .map(|s| (s * 1e6).round())
            .collect::<Vec<_>>()
    );
    let pool = Runtime::new(workers);
    // the whole sweep records into one tracer (same epoch as the thread
    // run): span volume is a few thousand events per point, far below
    // the spin-bound evaluation cost, so the overhead-band assertions
    // below measure the runtime, not the observer
    let t_rt = Tracer::with_epoch(epoch);
    let progress_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let progress_handle = args.progress.then(|| {
        let t = t_rt.clone();
        let stop = std::sync::Arc::clone(&progress_stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                eprintln!("  progress: {}", t.progress_line());
                std::thread::sleep(std::time::Duration::from_millis(1000));
            }
        })
    });
    let mut points: Vec<SweepPoint> = Vec::new();
    let mut obs_snapshot: Option<MetricsSnapshot> = None;
    let mut obs_trace: Option<String> = None;
    for &ranks in &ranks_list {
        let t0 = Instant::now();
        let (r, point) = run_sweep_point(
            &pool,
            &h,
            RHO,
            &eval_time,
            ranks,
            effective_cores,
            shards,
            &samples,
            &burn_in,
            args.seed,
            &t_rt,
        );
        eprintln!(
            "  ranks {ranks:>5}: {:.2}s live ({:.2}s wall), {:.0}% serves speculated",
            point.elapsed,
            t0.elapsed().as_secs_f64(),
            point.hit_rate * 100.0
        );
        if obs_snapshot.is_none() {
            // captured before the next point starts, so counters and
            // per-level activity describe this point alone
            let mut snap = MetricsSnapshot::capture(&format!("scaling_live ranks={ranks}"), &t_rt);
            snap.merge_ledger(&r.phonebook.ledger);
            snap.merge_runtime(&r.runtime);
            obs_snapshot = Some(snap);
            if args.trace_out.is_some() {
                // export the timeline up to here (thread validation run
                // + one full sweep point covers both parallel backends);
                // the remaining points would only multiply the file size
                obs_trace = Some(chrome_trace(&[
                    ("thread-scheduler", &t_thread),
                    ("cooperative-runtime", &t_rt),
                ]));
            }
        }
        points.push(point);
    }
    progress_stop.store(true, Ordering::Relaxed);
    if let Some(reporter) = progress_handle {
        reporter.join().expect("progress reporter thread");
    }
    let sweep_lifetime = pool.lifetime_stats();

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for p in &points {
        rows.push(vec![
            p.ranks.to_string(),
            format!("{:?}", p.chains),
            format!("{:.2}", p.elapsed),
            format!("{:.0}", p.throughput),
            format!("{:.2}", p.pred_elapsed),
            format!("{:.2}", p.elapsed / p.pred_elapsed),
            format!("{:.3}", p.des_makespan),
            format!("{:.1}", p.mean_batch),
            p.max_batch.to_string(),
            p.reassignments.to_string(),
            p.ledger_serves.to_string(),
            format!("{:.2}", p.diverged_frac),
            p.steals.to_string(),
            format!("{:.2}", p.hit_rate),
            format!("{:.2}", p.elapsed / p.pred_nospec_elapsed),
        ]);
        csv.push(vec![
            p.ranks as f64,
            p.elapsed,
            p.throughput,
            p.pred_elapsed,
            p.elapsed / p.pred_elapsed,
            p.des_makespan,
            p.des_busy,
            p.mean_batch,
            p.max_batch as f64,
            p.polls as f64,
            p.wakeups as f64,
            p.dropped_sends as f64,
            p.reassignments as f64,
            p.ledger_serves as f64,
            p.diverged_frac,
            p.steals as f64,
            p.spec_launched as f64,
            p.spec_hits as f64,
            p.spec_misses as f64,
            p.hit_rate,
            p.pred_nospec_elapsed,
            p.elapsed / p.pred_nospec_elapsed,
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
                "ovh vs PR4"
            ],
            &rows
        )
    );
    println!(
        "('DES pred' = max(DES makespan, DES busy-time / {effective_cores} cores): the DES's \
         wall-clock prediction for THIS machine;\n 'DES 1-rank-per-cpu' is the cluster-setting \
         makespan the paper measures — unreachable on {effective_cores} core(s).)\n"
    );
    write_bench_csv(
        &args.out_dir,
        "scaling_live.csv",
        "ranks,elapsed_s,throughput,des_pred_elapsed_s,overhead_ratio,des_makespan_s,\
         des_busy_s,mean_batch,max_batch,polls,wakeups,dropped_sends,reassignments,\
         ledger_serves,diverged_frac,steals,spec_launched,spec_hits,spec_misses,\
         spec_hit_rate,des_nospec_pred_elapsed_s,overhead_vs_pr4",
        &csv,
    );

    // acceptance: ≥ 512 virtual ranks live on ≤ 8 workers
    assert!(
        points.iter().any(|p| p.ranks >= 512),
        "sweep must include >= 512 virtual ranks"
    );

    // DES cross-check 1 (policy): evaluation counts per level must agree
    // — the runtime executes the schedule the simulator models
    for p in &points {
        for (level, (&live, &sim)) in p.evals.iter().zip(&p.des_evals).enumerate() {
            let ratio = live as f64 / sim.max(1) as f64;
            assert!(
                (0.5..2.0).contains(&ratio),
                "eval-count mismatch at {} ranks, level {level}: live {live} vs DES {sim}",
                p.ranks
            );
        }
    }
    // DES cross-check 2 (time): live wall-clock within a loose factor of
    // the DES prediction for this machine's core budget. Bounds are wide
    // on purpose: the DES models no messaging/scheduling overhead, and on
    // shared CI runners calibration can land on a quieter core than the
    // sweep — they still catch order-of-magnitude runtime pathologies
    // (dev-run observations sit at 0.9–1.4).
    for p in &points {
        let ratio = p.elapsed / p.pred_elapsed;
        assert!(
            (0.2..6.0).contains(&ratio),
            "live vs DES wall-clock diverged at {} ranks: {:.2}s vs predicted {:.2}s",
            p.ranks,
            p.elapsed,
            p.pred_elapsed
        );
    }
    // DES cross-check 3 (scalability): the virtualization overhead ratio
    // must stay roughly flat as virtual ranks grow 16x — hosting 1024
    // suspended controllers must not degrade the runtime (dev-run spread
    // is ~1.5x; the margin absorbs noisy-neighbor CI variance)
    let ratios: Vec<f64> = points.iter().map(|p| p.elapsed / p.pred_elapsed).collect();
    let (lo, hi) = ratios.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
        (lo.min(r), hi.max(r))
    });
    assert!(
        hi / lo < 4.0,
        "virtualization overhead must stay flat across rank counts: ratios {ratios:?}"
    );
    println!(
        "DES cross-check: eval counts, wall-clock (ratios {:?}) and overhead flatness agree ✓",
        ratios
            .iter()
            .map(|r| (r * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    // speculation acceptance (PR 5): the ledger must actually speculate
    // at scale, and the measured overhead ratio — live wall-clock over
    // the DES prediction of the schedule actually executed, the same
    // definition PR 4 measured at 1.21–1.32 — must sit at or below that
    // band. (`overhead_vs_pr4` in the artifact additionally compares
    // against the non-speculative DES baseline: on a machine with idle
    // cores speculation pushes it below 1; on a fully compute-saturated
    // box the discarded legs surface there as extra busy time.)
    assert!(
        points.iter().filter(|p| p.spec_hits > 0).count() >= 2,
        "speculation must land hits at multiple rank counts: {:?}",
        points.iter().map(|p| p.spec_hits).collect::<Vec<_>>()
    );
    let mean_overhead = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        mean_overhead <= 1.32,
        "mean overhead ratio {mean_overhead:.2} exceeds the PR-4 band ceiling 1.32: {ratios:?}"
    );
    println!(
        "speculation: hit rates {:?}, mean overhead {:.2} <= PR-4 band 1.21–1.32, \
         vs non-speculative baseline {:?} ✓",
        points
            .iter()
            .map(|p| (p.hit_rate * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
        mean_overhead,
        points
            .iter()
            .map(|p| ((p.elapsed / p.pred_nospec_elapsed) * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    // ---------------- 2b. observability cross-check (PR 8) ----------------
    // close the loop between the live tracer and the DES on the first
    // sweep point: the measured activity must match what the simulator
    // predicts for the same schedule
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
        obs_point.spec_hits as u64,
        "merged snapshot must carry the ledger's speculation stats"
    );

    // (b) per-level activity split: the live tracer's busy share per
    // level (eval + burn-in + serve spans) against the DES's
    // busy_per_level. Shares, not absolute seconds: oversubscription
    // (workers > cores) inflates every measured span by preemption, but
    // uniformly, so the *distribution* across levels must still agree.
    let live_level_busy: f64 = snap.per_level.iter().map(|l| l.busy()).sum();
    let des_level_busy: f64 = obs_point.des_busy_per_level.iter().sum();
    let mut share_rows = Vec::new();
    for l in &snap.per_level {
        let live_share = l.busy() / live_level_busy;
        let des_share = obs_point.des_busy_per_level[l.level] / des_level_busy;
        // band-check levels carrying real work; on the top level's sliver
        // (~1% of busy time) the DES's every-step-pays-one-eval model is
        // coarser than the live chain (which skips re-evaluating unchanged
        // coarse proposals), so only require the activity to exist
        if des_share >= 0.05 {
            let ratio = live_share / des_share;
            assert!(
                (0.4..2.5).contains(&ratio),
                "per-level busy share diverged from DES at level {}: live {live_share:.3} vs \
                 DES {des_share:.3}",
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
            des_share * 100.0
        ));
    }

    // (c) per-rank utilization: total measured busy seconds across
    // controller ranks against the DES's virtual-time busy total. Live
    // spans absorb preemption when the pool oversubscribes the cores,
    // so the acceptance band scales with the oversubscription factor.
    let busy_ranks: Vec<_> = snap.per_rank.iter().filter(|r| r.busy() > 0.0).collect();
    let live_busy_total: f64 = busy_ranks.iter().map(|r| r.busy()).sum();
    let mean_util = live_busy_total / (busy_ranks.len() as f64 * obs_point.elapsed);
    let oversub = (workers as f64 / effective_cores as f64).max(1.0);
    let busy_ratio = live_busy_total / des_level_busy;
    assert!(
        busy_ratio > 0.3 && busy_ratio < 3.0 * oversub,
        "measured busy time diverged from DES: live {live_busy_total:.2}s vs DES \
         {des_level_busy:.2}s (ratio {busy_ratio:.2}, oversubscription {oversub:.1})"
    );
    println!(
        "obs cross-check (ranks {}): serves {serves} vs write_backs {write_backs}, \
         busy live/DES {:.2} (mean rank utilization {:.1}%), level shares live/DES {} ✓",
        obs_point.ranks,
        busy_ratio,
        mean_util * 100.0,
        share_rows.join(", ")
    );
    println!(
        "obs spec loop: tracer hit rate {:.2} (the simulated ledger produces its own), \
         wall-clock prediction ratio {:.2} (cross-check 2) ✓\n",
        obs_point.hit_rate,
        obs_point.elapsed / obs_point.pred_elapsed
    );

    // ---------------- 2c. observability exports (PR 8) ----------------
    if let Some(name) = &args.trace_out {
        let trace = obs_trace.expect("trace captured at the first sweep point");
        write_bench(&args.out_dir, name, &trace);
    }
    if let Some(name) = &args.metrics_out {
        let thread_snap = MetricsSnapshot::capture("validation thread-scheduler", &t_thread);
        // v3 = v2 plus the multi-tenant service counters (appended to
        // the counters table) and the `per_tenant` serve table (empty
        // outside a service run); every v1/v2 field keeps its position —
        // CI validates both the v3 additions and v1/v2 stability
        let mut doc = String::from("{\n\"schema\": \"uq-obs-metrics-v3\",\n\"thread\": ");
        doc.push_str(thread_snap.to_json().trim_end());
        doc.push_str(",\n\"runtime\": ");
        doc.push_str(snap.to_json().trim_end());
        doc.push_str("\n}\n");
        write_bench(&args.out_dir, name, &doc);
    }

    // ---------------- 3. BENCH_PR3.json ----------------
    let sweep_items: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{ \"ranks\": {}, \"chains\": {:?}, \"elapsed_s\": {:.3}, \
                 \"throughput_samples_per_s\": {:.1}, \"des_pred_elapsed_s\": {:.3}, \
                 \"overhead_ratio\": {:.3}, \"des_makespan_s\": {:.3}, \"des_busy_s\": {:.3}, \
                 \"evals_per_level\": {:?}, \"des_evals_per_level\": {:?}, \"mean_batch\": {:.2}, \
                 \"max_batch\": {}, \"polls\": {}, \"wakeups\": {}, \"dropped_sends\": {}, \
                 \"reassignments\": {}, \"ledger_serves\": {}, \"diverged_frac\": {:.3}, \
                 \"steals\": {} }}",
                p.ranks,
                p.chains,
                p.elapsed,
                p.throughput,
                p.pred_elapsed,
                p.elapsed / p.pred_elapsed,
                p.des_makespan,
                p.des_busy,
                p.evals,
                p.des_evals,
                p.mean_batch,
                p.max_batch,
                p.polls,
                p.wakeups,
                p.dropped_sends,
                p.reassignments,
                p.ledger_serves,
                p.diverged_frac,
                p.steals
            )
        })
        .collect();
    let mut json = BenchJson::new();
    json.field("pr", 3)
        .field("workers", workers)
        .field("effective_cores", effective_cores)
        .field("collector_shards", shards)
        .array("validation", &val_items)
        .array("scaling_live", &sweep_items);
    write_bench(&args.out_dir, "BENCH_PR3.json", &json.finish());

    // ---------------- 4. BENCH_PR5.json ----------------
    // the speculative-serving artifact: per-rank-count hit rates and the
    // overhead ratio against both DES baselines (speculation-aware =
    // model tracking; non-speculative = the PR-4 band the tentpole is
    // measured against), plus the reused pool's lifetime counters
    let spec_items: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{ \"ranks\": {}, \"elapsed_s\": {:.3}, \"serves\": {}, \
                 \"spec_launched\": {}, \"spec_hits\": {}, \"spec_misses\": {}, \
                 \"spec_hit_rate\": {:.3}, \"diverged_frac\": {:.3}, \
                 \"des_pred_elapsed_s\": {:.3}, \"overhead_ratio\": {:.3}, \
                 \"des_nospec_pred_elapsed_s\": {:.3}, \"overhead_vs_pr4\": {:.3} }}",
                p.ranks,
                p.elapsed,
                p.ledger_serves,
                p.spec_launched,
                p.spec_hits,
                p.spec_misses,
                p.hit_rate,
                p.diverged_frac,
                p.pred_elapsed,
                p.elapsed / p.pred_elapsed,
                p.pred_nospec_elapsed,
                p.elapsed / p.pred_nospec_elapsed
            )
        })
        .collect();
    let mut json5 = BenchJson::new();
    json5
        .field("pr", 5)
        .field("workers", workers)
        .field("effective_cores", effective_cores)
        .field("pr4_overhead_band", "[1.21, 1.32]")
        .field(
            "pool_lifetime",
            format!(
                "{{ \"polls\": {}, \"wakeups\": {}, \"dropped_sends\": {}, \"steals\": {} }}",
                sweep_lifetime.polls,
                sweep_lifetime.wakeups,
                sweep_lifetime.dropped_sends,
                sweep_lifetime.steals
            ),
        )
        .array("sweep", &spec_items);
    write_bench(&args.out_dir, "BENCH_PR5.json", &json5.finish());

    // ---------------- 5. durable runs (PR 6) ----------------
    checkpoint_study(&args);
    println!("\nscaling_live: all checks passed");
}
