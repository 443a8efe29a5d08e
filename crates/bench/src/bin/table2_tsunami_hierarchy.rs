//! **Table 2**: polynomial order, limiter status, mesh width, number of
//! timesteps and degree-of-freedom updates of the three tsunami models,
//! evaluated at the reference parameters `θ = (0, 0)`.
//!
//! "DOF updates" counts the cell updates actually performed: two stage
//! sweeps per step, plus — on the limited levels — the cells of the
//! dependency cone the incremental MOOD fallback recomputes around its
//! troubled cells (DESIGN.md §1.2). Until ISSUE 13 the fallback redid the
//! whole step, and this column read ≈ 3.5 instead of ≈ 2.0 sweeps per step
//! on levels 1 and 2.
//!
//! Run with `--paper` for the paper's 25/79/241 grids (level 2 takes
//! ~1 min); defaults to the reduced grids.

use uq_bench::{render_table, to_csv, write_output, ExpArgs};
use uq_swe::tohoku::{Resolution, TsunamiModel};

fn main() {
    let args = ExpArgs::parse();
    let resolution = if args.paper {
        Resolution::Paper
    } else {
        Resolution::Reduced
    };
    println!("Table 2 — tsunami model hierarchy at theta = (0, 0)");
    println!("(paper reference: timesteps 98 / 306 / 932, DOF updates 2.4e5 / 9.4e6 / 2.7e8)\n");
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for level in 0..3 {
        let mut model = TsunamiModel::new(level, resolution);
        let n = resolution.cells(level);
        let obs = model.forward(&[0.0, 0.0]);
        let stats = model.last_stats();
        rows.push(vec![
            level.to_string(),
            "2".to_string(),
            if model.uses_limiter() { "yes" } else { "no" }.to_string(),
            format!("1/{n}"),
            stats.timesteps.to_string(),
            format!("{:.2e}", stats.dof_updates as f64),
            format!("{:.1e}", stats.limited_cells as f64),
            format!("{:.3}", obs[0]),
            format!("{:.2}", obs[2]),
        ]);
        csv_rows.push(vec![
            level as f64,
            n as f64,
            stats.timesteps as f64,
            stats.dof_updates as f64,
            stats.limited_cells as f64,
            obs[0],
            obs[1],
            obs[2],
            obs[3],
        ]);
    }
    let table = render_table(
        &[
            "level",
            "order",
            "limiter",
            "h",
            "#timesteps",
            "DOF updates",
            "limited",
            "hmax@21418",
            "t@21418[min]",
        ],
        &rows,
    );
    println!("{table}");
    write_output(
        &args.out_dir,
        "table2_tsunami_hierarchy.csv",
        &to_csv(
            "level,cells_per_dim,timesteps,dof_updates,limited_cells,hmax1,hmax2,t1_min,t2_min",
            &csv_rows,
        ),
    );
}
