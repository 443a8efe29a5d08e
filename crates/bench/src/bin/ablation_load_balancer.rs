//! **Ablation: dynamic load balancing on/off** (DESIGN.md §5.2).
//!
//! Runs the shipped role machines in virtual time (`Placement::Sim`,
//! Poisson costs) from deliberately unbalanced chain allocations, with
//! the phonebook's balancer off and on. In the paper (Section 4.3) it
//! recovers most of the makespan a bad allocation loses; under the exact
//! ledger a reassigned chain pays its new level's burn-in in dedicated
//! serves, which at these sample counts costs more than the move gains.

use uq_bench::table3::simulate;
use uq_bench::{render_table, to_csv, write_output, ExpArgs};

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
            let r = simulate(&samples, chains, 0.25, lb, args.seed);
            makespans[k] = r.report.elapsed;
            reassigned[k] = r.phonebook.reassignments;
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
