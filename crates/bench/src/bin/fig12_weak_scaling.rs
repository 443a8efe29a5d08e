//! **Fig. 12**: weak scaling and parallel efficiency of the Poisson
//! problem. The 64-rank base computes 10⁴/10³/10² samples; sample counts
//! scale linearly with the rank count from 32 to 1024. Efficiency is
//! `t_ref / t_N · 100%` with `t_ref` the fastest run, exactly as in the
//! paper (which is why the small runs exceed 100%: the fixed bookkeeping
//! ranks are amortized).
//!
//! Like Fig. 11 this is the shipped role machines in virtual time: the
//! exact-ledger policy, not the paper's free handoffs (DESIGN.md §3.2).

use uq_bench::{render_table, to_csv, write_output, ExpArgs};
use uq_parallel::des::{distribute_chains, simulate, DesConfig};

const EVAL_TIME: [f64; 3] = [3.35e-3, 45.64e-3, 931.81e-3];
const VARIANCES: [f64; 3] = [1.501e-1, 1.121e-3, 4.165e-5];
const SUBSAMPLING: [usize; 3] = [206, 17, 0];

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
        let cfg = DesConfig {
            eval_time: EVAL_TIME.to_vec(),
            eval_jitter: 0.2,
            samples_per_level: samples,
            burn_in: vec![500, 100, 20],
            subsampling: SUBSAMPLING.to_vec(),
            chains_per_level: chains,
            phonebook_service_time: 2e-4,
            // per message handled, discarded surplus included: a slower
            // collector than its level's producers queues without bound
            collector_service_time: 1e-5,
            load_balancing: true,
            seed: args.seed,
        };
        let r = simulate(&cfg);
        results.push((ranks, r));
    }
    let t_ref = results
        .iter()
        .map(|(_, r)| r.makespan)
        .fold(f64::INFINITY, f64::min);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (ranks, r) in &results {
        let eff = t_ref / r.makespan * 100.0;
        rows.push(vec![
            ranks.to_string(),
            format!("{:.1}", r.makespan),
            format!("{:.0}%", eff),
            format!("{:.0}%", 100.0 * r.busy_fraction),
        ]);
        csv.push(vec![*ranks as f64, r.makespan, eff, r.busy_fraction]);
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
