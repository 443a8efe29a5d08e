//! **Ablation: dynamic load balancing on/off** (DESIGN.md §5.2).
//!
//! Runs the shipped role machines in virtual time (`des::simulate`,
//! Poisson costs) from deliberately unbalanced chain allocations, with
//! the phonebook's balancer off and on. In the paper (Section 4.3) it
//! recovers most of the makespan a bad allocation loses; under the exact
//! ledger a reassigned chain pays its new level's burn-in in dedicated
//! serves, which at these sample counts costs more than the move gains.

use uq_bench::{render_table, to_csv, write_output, ExpArgs};
use uq_parallel::des::{simulate, DesConfig};

const EVAL_TIME: [f64; 3] = [3.35e-3, 45.64e-3, 931.81e-3];
const SUBSAMPLING: [usize; 3] = [206, 17, 0];

fn main() {
    let args = ExpArgs::parse();
    let samples = if args.paper {
        vec![10_000usize, 1_000, 100]
    } else {
        vec![4_000usize, 400, 40]
    };
    println!("Ablation — dynamic load balancing on/off (simulated role machines, Poisson costs)\n");
    let allocations: [(&str, [usize; 3]); 3] = [
        ("balanced", [20, 5, 2]),
        ("coarse-heavy", [24, 2, 1]),
        ("fine-heavy", [6, 6, 15]),
    ];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, chains) in &allocations {
        let mut makespans = [0.0f64; 2];
        let mut reassigned = [0usize; 2];
        for (k, lb) in [false, true].into_iter().enumerate() {
            let cfg = DesConfig {
                eval_time: EVAL_TIME.to_vec(),
                eval_jitter: 0.25,
                samples_per_level: samples.clone(),
                burn_in: vec![500, 100, 20],
                subsampling: SUBSAMPLING.to_vec(),
                chains_per_level: chains.to_vec(),
                phonebook_service_time: 2e-4,
                // per message handled, discarded surplus included: a slower
                // collector than its level's producers queues without bound
                collector_service_time: 1e-5,
                load_balancing: lb,
                seed: args.seed,
            };
            let r = simulate(&cfg);
            makespans[k] = r.makespan;
            reassigned[k] = r.reassignments;
        }
        let gain = makespans[0] / makespans[1];
        rows.push(vec![
            (*name).to_string(),
            format!("{chains:?}"),
            format!("{:.1}", makespans[0]),
            format!("{:.1}", makespans[1]),
            format!("{:.2}x", gain),
            reassigned[1].to_string(),
        ]);
        csv.push(vec![
            chains[0] as f64,
            chains[1] as f64,
            chains[2] as f64,
            makespans[0],
            makespans[1],
            gain,
            reassigned[1] as f64,
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "allocation",
                "chains",
                "fixed[s]",
                "balanced[s]",
                "gain",
                "reassigned"
            ],
            &rows
        )
    );
    write_output(
        &args.out_dir,
        "ablation_load_balancer.csv",
        &to_csv(
            "chains0,chains1,chains2,makespan_fixed,makespan_lb,gain,reassignments",
            &csv,
        ),
    );
}
