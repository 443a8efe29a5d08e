//! **Fig. 11**: strong scaling of parallel MLMCMC on the Poisson problem.
//!
//! The problem (10⁴/10³/10² samples, Table-3 subsampling) is held fixed
//! while the rank count grows from 32 to 1024. The paper ran this on the
//! BwForCluster; we run the role machines this repository ships in
//! virtual time (`Placement::Sim`), every evaluation costing the paper's
//! measured per-level time (DESIGN.md §3.2), and additionally run the
//! same machines *live* (`Placement::Pool`, a worker pool as wide as
//! this host) at small rank counts as a cross-check (`--paper` extends
//! the live sweep).
//!
//! The curve is the **exact-ledger policy's**, not the paper's: a coarse
//! proposal here is `ρ` dedicated evaluations, and `2ρ` for a chain's own
//! step on a diverged session under `PairingMode::Ledger` (the one request
//! whose correction reads the pairing mate), where the paper hands over a
//! sample the coarse chain had produced anyway, so per-chain burn-in sets
//! the floor (DESIGN.md §3.2 has both).

use uq_bench::table3::{busy_fraction, distribute_chains, simulate, EVAL_TIME, VARIANCES};
use uq_bench::{render_table, to_csv, write_output, ExpArgs};
use uq_parallel::{Placement, Run, Runtime, RuntimeConfig, StandIn, Tracer};

fn main() {
    let args = ExpArgs::parse();
    let samples = [10_000usize, 1_000, 100];
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
        let r = simulate(&samples, &chains, 0.2, true, args.seed);
        let (makespan, busy) = (r.report.elapsed, busy_fraction(&r));
        let base = *t32.get_or_insert(makespan * ranks_list[0] as f64);
        let speedup = base / makespan / ranks_list[0] as f64;
        let ideal = ranks as f64 / ranks_list[0] as f64;
        rows.push(vec![
            ranks.to_string(),
            format!("{:?}", chains),
            format!("{:.1}", makespan),
            format!("{:.2}", speedup),
            format!("{:.2}", ideal),
            format!("{:.0}%", 100.0 * busy),
            r.phonebook.reassignments.to_string(),
        ]);
        csv.push(vec![
            ranks as f64,
            makespan,
            speedup,
            ideal,
            busy,
            r.phonebook.reassignments as f64,
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
    // (the analytically cheap stand-in hierarchy exercises the real
    // message-passing path; the pool's fair polling keeps every
    // collector up with its producers at any ranks-per-core ratio)
    println!("live scheduler cross-check (worker pool, Gaussian hierarchy):");
    let hierarchy = StandIn::new(vec![5, 3, 0]);
    let live_samples = if args.paper {
        vec![60_000usize, 6_000, 600]
    } else {
        vec![20_000usize, 2_000, 200]
    };
    let mut live_rows = Vec::new();
    let mut live_csv = Vec::new();
    let mut base: Option<f64> = None;
    let pool = Runtime::for_host();
    for chains in [[1usize, 1, 1], [2, 2, 2], [4, 3, 3], [8, 4, 4]] {
        let mut config = RuntimeConfig::new(live_samples.clone(), chains.to_vec());
        config.base.burn_in = vec![200, 100, 50];
        config.base.seed = args.seed;
        let off = Tracer::disabled();
        let run = Run::new(&hierarchy, &config, &off, None, None);
        let report = run.on(Placement::Pool(&pool)).expect("a live run").report;
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
