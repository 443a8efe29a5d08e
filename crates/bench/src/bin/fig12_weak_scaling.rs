//! **Fig. 12**: weak scaling and parallel efficiency of the Poisson
//! problem. The 64-rank base computes 10⁴/10³/10² samples; sample counts
//! scale linearly with the rank count from 32 to 1024. Efficiency is
//! `t_ref / t_N · 100%` with `t_ref` the fastest run, exactly as in the
//! paper (which is why the small runs exceed 100%: the fixed bookkeeping
//! ranks are amortized).
//!
//! Like Fig. 11 this is the shipped role machines in virtual time: the
//! exact-ledger policy, not the paper's free handoffs (DESIGN.md §3.2).

use uq_bench::table3::{busy_fraction, distribute_chains, simulate, EVAL_TIME, VARIANCES};
use uq_bench::{render_table, to_csv, write_output, ExpArgs};

fn main() {
    let args = ExpArgs::parse();
    let base_ranks = 64usize;
    let base_samples = [10_000usize, 1_000, 100];
    let ranks_list = [32usize, 64, 128, 256, 512, 1024];

    println!("Fig. 12 — weak scaling and parallel efficiency");
    println!("(paper: ~consistent run times up to 512 ranks, drop at 1024 as the");
    println!(" very fast coarse model saturates the communication infrastructure)\n");

    let mut results = Vec::new();
    for &ranks in &ranks_list {
        let scale = ranks as f64 / base_ranks as f64;
        let samples: Vec<usize> = base_samples
            .iter()
            .map(|&n| ((n as f64 * scale).round() as usize).max(1))
            .collect();
        let overhead = 2 + 3;
        let n_chains = ranks - overhead;
        let chains = distribute_chains(n_chains, &VARIANCES, &EVAL_TIME);
        let r = simulate(&samples, &chains, 0.2, true, args.seed);
        results.push((ranks, r));
    }
    let t_ref = results
        .iter()
        .map(|(_, r)| r.report.elapsed)
        .fold(f64::INFINITY, f64::min);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (ranks, r) in &results {
        let (makespan, busy) = (r.report.elapsed, busy_fraction(r));
        let eff = t_ref / makespan * 100.0;
        rows.push(vec![
            ranks.to_string(),
            format!("{makespan:.1}"),
            format!("{eff:.0}%"),
            format!("{:.0}%", 100.0 * busy),
        ]);
        csv.push(vec![*ranks as f64, makespan, eff, busy]);
    }
    println!(
        "{}",
        render_table(&["ranks", "time[s]", "efficiency", "busy"], &rows)
    );
    write_output(
        &args.out_dir,
        "fig12_weak_scaling.csv",
        &to_csv("ranks,makespan_s,efficiency_pct,busy_fraction", &csv),
    );
}
