//! **Fig. 11**: strong scaling of parallel MLMCMC on the Poisson problem.
//!
//! The problem (10⁴/10³/10² samples, Table-3 subsampling) is held fixed
//! while the rank count grows from 32 to 1024. The paper ran this on the
//! BwForCluster; we run the role machines this repository ships in
//! virtual time (`des::simulate`), every evaluation costing the paper's
//! measured per-level time (DESIGN.md §3.2), and additionally run the
//! same machines *live* (`run_parallel`, a worker pool as wide as this
//! host) at small rank counts as a cross-check (`--paper` extends the
//! live sweep).
//!
//! The curve is the **exact-ledger policy's**, not the paper's: a coarse
//! proposal here is `ρ·(1 + diverged)` dedicated evaluations, where the
//! paper hands over a sample the coarse chain had produced anyway, so
//! per-chain burn-in sets the floor (DESIGN.md §3.2 has both).

use uq_bench::{render_table, to_csv, write_output, ExpArgs};
use uq_parallel::des::{distribute_chains, simulate, DesConfig};
use uq_parallel::{run_parallel, ParallelConfig, Tracer};

/// Paper Table-3 measured evaluation costs (seconds) and variances.
const EVAL_TIME: [f64; 3] = [3.35e-3, 45.64e-3, 931.81e-3];
const VARIANCES: [f64; 3] = [1.501e-1, 1.121e-3, 4.165e-5];
const SUBSAMPLING: [usize; 3] = [206, 17, 0];

fn main() {
    let args = ExpArgs::parse();
    let samples = vec![10_000usize, 1_000, 100];
    let burn_in = vec![500usize, 100, 20];
    let ranks_list = [32usize, 64, 128, 256, 512, 1024];

    println!("Fig. 11 — strong scaling (the shipped role machines in virtual time)");
    println!("(paper, free handoffs: near-linear speedup until few-samples-per-chain");
    println!(" saturation; here every coarse proposal is a dedicated ledger serve)\n");

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut t32 = None;
    for &ranks in &ranks_list {
        let overhead = 2 + 3; // root + phonebook + 3 collectors
        let n_chains = ranks - overhead;
        let chains = distribute_chains(n_chains, &VARIANCES, &EVAL_TIME);
        let cfg = DesConfig {
            eval_time: EVAL_TIME.to_vec(),
            eval_jitter: 0.2,
            samples_per_level: samples.clone(),
            burn_in: burn_in.clone(),
            subsampling: SUBSAMPLING.to_vec(),
            chains_per_level: chains.clone(),
            phonebook_service_time: 2e-4,
            // per message handled, discarded surplus included: a slower
            // collector than its level's producers queues without bound
            collector_service_time: 1e-5,
            load_balancing: true,
            seed: args.seed,
        };
        let r = simulate(&cfg);
        let base = *t32.get_or_insert(r.makespan * ranks_list[0] as f64);
        let speedup = base / r.makespan / ranks_list[0] as f64;
        let ideal = ranks as f64 / ranks_list[0] as f64;
        rows.push(vec![
            ranks.to_string(),
            format!("{:?}", chains),
            format!("{:.1}", r.makespan),
            format!("{:.2}", speedup),
            format!("{:.2}", ideal),
            format!("{:.0}%", 100.0 * r.busy_fraction),
            r.reassignments.to_string(),
        ]);
        csv.push(vec![
            ranks as f64,
            r.makespan,
            speedup,
            ideal,
            r.busy_fraction,
            r.reassignments as f64,
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "ranks",
                "chains/level",
                "time[s]",
                "speedup",
                "ideal",
                "busy",
                "reassigned"
            ],
            &rows
        )
    );
    write_output(
        &args.out_dir,
        "fig11_strong_scaling.csv",
        &to_csv(
            "ranks,makespan_s,speedup,ideal_speedup,busy_fraction,reassignments",
            &csv,
        ),
    );

    // ---- live cross-check on the worker pool ----
    // (an analytically cheap Gaussian hierarchy exercises the real
    // message-passing path; the pool's fair polling keeps every
    // collector up with its producers at any ranks-per-core ratio)
    println!("live scheduler cross-check (worker pool, Gaussian hierarchy):");
    let live_samples = if args.paper {
        vec![60_000usize, 6_000, 600]
    } else {
        vec![20_000usize, 2_000, 200]
    };
    let mut live_rows = Vec::new();
    let mut live_csv = Vec::new();
    let mut base: Option<f64> = None;
    for chains in [[1usize, 1, 1], [2, 2, 2], [4, 3, 3], [8, 4, 4]] {
        let h = GaussianHierarchy;
        let mut config = ParallelConfig::new(live_samples.clone(), chains.to_vec());
        config.burn_in = vec![200, 100, 50];
        config.seed = args.seed;
        let report = run_parallel(&h, &config, &Tracer::disabled());
        let b = *base.get_or_insert(report.elapsed);
        live_rows.push(vec![
            report.n_ranks.to_string(),
            format!("{:.2}", report.elapsed),
            format!("{:.2}", b / report.elapsed),
            format!("{:.3}", report.expectation()[0]),
        ]);
        live_csv.push(vec![
            report.n_ranks as f64,
            report.elapsed,
            b / report.elapsed,
            report.expectation()[0],
        ]);
    }
    println!(
        "{}",
        render_table(&["ranks", "time[s]", "speedup", "estimate"], &live_rows)
    );
    write_output(
        &args.out_dir,
        "fig11_live_scaling.csv",
        &to_csv("ranks,elapsed_s,speedup,estimate", &live_csv),
    );
}

/// Cheap three-level Gaussian hierarchy for the live sweep.
struct GaussianHierarchy;

impl uq_mlmcmc::LevelFactory for GaussianHierarchy {
    fn n_levels(&self) -> usize {
        3
    }
    fn problem(&self, level: usize) -> Box<dyn uq_mcmc::SamplingProblem> {
        let mean = [0.6, 0.9, 1.0][level];
        let sd = [0.65, 0.55, 0.5][level];
        Box::new(uq_mcmc::problem::GaussianTarget::new(vec![mean], sd))
    }
    fn proposal(&self, _level: usize) -> Box<dyn uq_mcmc::Proposal> {
        Box::new(uq_mcmc::GaussianRandomWalk::new(0.8))
    }
    fn subsampling_rate(&self, level: usize) -> usize {
        [5, 3, 0][level]
    }
    fn starting_point(&self, _level: usize) -> Vec<f64> {
        vec![0.0]
    }
}
