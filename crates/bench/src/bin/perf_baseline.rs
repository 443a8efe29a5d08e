//! Machine-readable performance baseline for the forward-solve pipeline.
//!
//! Emits `BENCH_PR2.json` with per-kernel ns/op and per-level CG
//! iteration counts so later PRs have a perf trajectory to regress
//! against. Run with `cargo run --release -p uq-bench --bin
//! perf_baseline [output-path]`; the default output is
//! `results/BENCH_PR2.json`.
//!
//! Measured kernels (n = elements per direction):
//! * `assemble_coo_n{16,64}` — legacy per-solve COO assembly + sort;
//! * `refill_n{16,64}` — in-place scatter-map refill (values + rhs);
//! * `ssor_apply_n64` / `vcycle_n64` — one preconditioner application;
//! * `cg_ssor_n*` / `cg_mg_n*` — full cold-start solves at `rel_tol
//!   1e-8`, with iteration counts recorded per mesh level;
//! * `forward_n*` — the Poisson forward map (refill + workspace CG +
//!   MG), driven by a correlated θ chain so warm starts help as in MCMC
//!   but every timed iteration performs a genuine solve. The pre-PR-2
//!   pipeline it replaced is recorded in the committed
//!   `results/BENCH_PR2.json` / `BENCH_PR7.json`.

use std::fmt::Write as _;
use std::time::Instant;
use uq_bench::pipeline_bench::{bench_hierarchy as hierarchy, bench_kappa, theta_chain};
use uq_fem::assembly::assemble;
use uq_fem::{PoissonModel, StiffnessOperator, StructuredGrid};
use uq_linalg::solvers::{cg, Preconditioner, SolverOptions, SsorPrecond};
use uq_randfield::KlField2d;

/// Median wall-clock ns of `f` over enough repetitions to be stable.
fn time_ns(mut f: impl FnMut()) -> f64 {
    // warm up and calibrate the per-call cost
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_nanos().max(1) as u64;
    // target ~20 ms per sample, 9 samples, median
    let per_sample = (20_000_000 / once).clamp(1, 100_000) as usize;
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_sample {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_sample as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_PR2.json".to_string());
    let opts = SolverOptions {
        rel_tol: 1e-8,
        ..Default::default()
    };
    let mut kernels: Vec<(String, f64)> = Vec::new();
    let mut cg_iters: Vec<(&'static str, usize, usize)> = Vec::new();

    eprintln!("perf_baseline: assembly + preconditioner kernels");
    for n in [16usize, 64] {
        let grid = StructuredGrid::new(n);
        let kappa = bench_kappa(&grid);
        kernels.push((
            format!("assemble_coo_n{n}_ns"),
            time_ns(|| {
                std::hint::black_box(assemble(&grid, &kappa));
            }),
        ));
        let mut op = StiffnessOperator::new(&grid);
        kernels.push((
            format!("refill_n{n}_ns"),
            time_ns(|| {
                op.refill(std::hint::black_box(&kappa));
            }),
        ));
    }
    {
        let n = 64;
        let grid = StructuredGrid::new(n);
        let sys = assemble(&grid, &bench_kappa(&grid));
        let nodes = grid.n_nodes();
        let r: Vec<f64> = (0..nodes).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let mut z = vec![0.0; nodes];
        let pre = SsorPrecond::new(&sys.matrix, 1.0);
        kernels.push((
            "ssor_apply_n64_ns".into(),
            time_ns(|| pre.apply_into(std::hint::black_box(&r), &mut z)),
        ));
        let h = hierarchy(n);
        kernels.push((
            "vcycle_n64_ns".into(),
            time_ns(|| h.vcycle_into(std::hint::black_box(&r), &mut z)),
        ));
    }

    eprintln!("perf_baseline: cold-start CG solves (per-level iteration counts)");
    for n in [16usize, 32, 64] {
        let grid = StructuredGrid::new(n);
        let sys = assemble(&grid, &bench_kappa(&grid));
        let pre = SsorPrecond::new(&sys.matrix, 1.0);
        let ssor = cg(&sys.matrix, &sys.rhs, None, &pre, opts);
        assert!(ssor.converged, "SSOR-CG stalled at n = {n}");
        let h = hierarchy(n);
        let mg = cg(h.matrix(0), &sys.rhs, None, &h, opts);
        assert!(mg.converged, "MG-CG stalled at n = {n}");
        cg_iters.push(("ssor", n, ssor.iterations));
        cg_iters.push(("mg", n, mg.iterations));
        if n != 32 {
            let pre = SsorPrecond::new(&sys.matrix, 1.0);
            kernels.push((
                format!("cg_ssor_n{n}_ns"),
                time_ns(|| {
                    let r = cg(&sys.matrix, &sys.rhs, None, &pre, opts);
                    std::hint::black_box(r.iterations);
                }),
            ));
            kernels.push((
                format!("cg_mg_n{n}_ns"),
                time_ns(|| {
                    let r = cg(h.matrix(0), &sys.rhs, None, &h, opts);
                    std::hint::black_box(r.iterations);
                }),
            ));
        }
    }

    eprintln!("perf_baseline: Poisson forward map");
    let field = KlField2d::new(0.15, 1.0, 113);
    let thetas = theta_chain(1, 113, 16);
    for n in [16usize, 64] {
        let mut model = PoissonModel::new(n, &field);
        let mut k = 0usize;
        let ns = time_ns(|| {
            let theta = &thetas[k % thetas.len()];
            k += 1;
            std::hint::black_box(model.forward(theta));
        });
        kernels.push((format!("forward_n{n}_ns"), ns));
    }

    // hand-rolled JSON (no serde in the offline environment)
    let mut json = String::from("{\n  \"pr\": 2,\n  \"kernels\": {\n");
    for (i, (name, ns)) in kernels.iter().enumerate() {
        let comma = if i + 1 == kernels.len() { "" } else { "," };
        writeln!(json, "    \"{name}\": {ns:.1}{comma}").unwrap();
    }
    json.push_str("  },\n  \"cg_iterations\": {\n");
    for (pi, precond) in ["ssor", "mg"].iter().enumerate() {
        writeln!(json, "    \"{precond}\": {{").unwrap();
        let rows: Vec<&(&str, usize, usize)> =
            cg_iters.iter().filter(|(p, _, _)| p == precond).collect();
        for (i, (_, n, iters)) in rows.iter().enumerate() {
            let comma = if i + 1 == rows.len() { "" } else { "," };
            writeln!(json, "      \"n{n}\": {iters}{comma}").unwrap();
        }
        let comma = if pi == 1 { "" } else { "," };
        writeln!(json, "    }}{comma}").unwrap();
    }
    json.push_str("  }\n}\n");

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write baseline json");
    println!("{json}");
    eprintln!("perf_baseline: wrote {out_path}");
}
