//! # uq-bench
//!
//! Experiment harness regenerating every table and figure of the paper
//! (see DESIGN.md §4 for the experiment index). Nothing here times
//! anything: measuring is the job of the repo's benchmark (`benchmark/`),
//! whose kernel ladder takes its fixtures from [`pipeline_bench`].
//!
//! Each experiment is a binary under `src/bin/`; all of them accept
//! `--paper` to run at the paper's full scale and default to CI-sized
//! parameters otherwise. Outputs go to `results/` as CSV plus a printed
//! table mirroring the paper's layout.

#![deny(rustdoc::broken_intra_doc_links)]

use std::io::Write;
use std::path::{Path, PathBuf};

/// Parsed common command-line options for experiment binaries.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Run at the paper's full scale.
    pub paper: bool,
    /// Output directory (default `results/`).
    pub out_dir: PathBuf,
    /// RNG seed.
    pub seed: u64,
    /// Model selector for experiments that drive more than one forward
    /// model (e.g. `scaling_live`: `gauss` (default) or `swe`).
    pub model: String,
    /// Write a Chrome trace-event JSON (Perfetto-loadable) of the
    /// traced phases to this file under `out_dir`.
    pub trace_out: Option<String>,
    /// Write a `MetricsSnapshot` JSON (counters, histograms, per-rank /
    /// per-level activity) to this file under `out_dir`.
    pub metrics_out: Option<String>,
    /// Print a periodic live progress line (stderr) while the traced
    /// phases run.
    pub progress: bool,
}

impl ExpArgs {
    /// Parse from `std::env::args`. Recognizes `--paper`,
    /// `--out <dir>`, `--seed <n>`, `--model <name>`,
    /// `--trace-out <file>`, `--metrics-out <file>`, `--progress`.
    pub fn parse() -> Self {
        let mut args = ExpArgs {
            paper: false,
            out_dir: PathBuf::from("results"),
            seed: 20210730,
            model: String::from("gauss"),
            trace_out: None,
            metrics_out: None,
            progress: false,
        };
        let mut iter = std::env::args().skip(1);
        while let Some(a) = iter.next() {
            match a.as_str() {
                "--paper" => args.paper = true,
                "--out" => {
                    args.out_dir = PathBuf::from(iter.next().expect("--out needs a value"));
                }
                "--seed" => {
                    args.seed = iter
                        .next()
                        .expect("--seed needs a value")
                        .parse()
                        .expect("--seed must be an integer");
                }
                "--model" => {
                    args.model = iter.next().expect("--model needs a value");
                }
                "--trace-out" => {
                    args.trace_out = Some(iter.next().expect("--trace-out needs a value"));
                }
                "--metrics-out" => {
                    args.metrics_out = Some(iter.next().expect("--metrics-out needs a value"));
                }
                "--progress" => args.progress = true,
                other => {
                    panic!(
                        "unknown argument: {other} (expected --paper/--out/--seed/--model/\
                         --trace-out/--metrics-out/--progress)"
                    )
                }
            }
        }
        args
    }
}

/// Write `content` to `<out_dir>/<name>`, creating the directory.
pub fn write_output(out_dir: &Path, name: &str, content: &str) -> PathBuf {
    std::fs::create_dir_all(out_dir).expect("cannot create output directory");
    let path = out_dir.join(name);
    let mut f = std::fs::File::create(&path).expect("cannot create output file");
    f.write_all(content.as_bytes())
        .expect("cannot write output");
    println!("wrote {}", path.display());
    path
}

/// Format a CSV from a header and rows.
pub fn to_csv(header: &str, rows: &[Vec<f64>]) -> String {
    let mut out = String::from(header);
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Render an aligned text table (for terminal output mirroring the
/// paper's tables).
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let n = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (n - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
        out.push('\n');
    }
    out
}

/// Hand out `n` chains over levels in proportion to `weights`: one chain
/// per level, the rest by largest-remainder apportionment, so the counts
/// sum to `n` and a level of larger weight never gets fewer chains.
pub fn apportion(n: usize, weights: &[f64]) -> Vec<usize> {
    let n_levels = weights.len();
    assert!(n >= n_levels, "need at least one chain per level");
    let total: f64 = weights.iter().sum();
    let spare = (n - n_levels) as f64;
    let shares: Vec<f64> = weights.iter().map(|w| w / total * spare).collect();
    let mut out: Vec<usize> = shares.iter().map(|s| 1 + s.floor() as usize).collect();
    // the chains the floors left over, at most one per level, go to the
    // largest fractions (between equal ones, the larger weight)
    let mut by_fraction: Vec<usize> = (0..n_levels).collect();
    let key = |l: usize| (shares[l].fract(), weights[l]);
    by_fraction.sort_by(|&a, &b| key(b).partial_cmp(&key(a)).expect("finite weights"));
    let left_over = n - out.iter().sum::<usize>();
    for &l in by_fraction.iter().take(left_over) {
        out[l] += 1;
    }
    out
}

/// The Poisson schedule of the scaling studies (Figs. 11–12, the
/// load-balancer ablation): paper Table 3's measured costs, variances and
/// subsampling rates, and the run they define in virtual time.
pub mod table3 {
    use uq_parallel::{Placement, Run, RuntimeConfig, RuntimeReport, SimCost, StandIn, Tracer};

    /// Measured evaluation cost per level (seconds).
    pub const EVAL_TIME: [f64; 3] = [3.35e-3, 45.64e-3, 931.81e-3];
    /// Variance of the telescoping term per level.
    pub const VARIANCES: [f64; 3] = [1.501e-1, 1.121e-3, 4.165e-5];
    /// Subsampling rate `ρ_l` per level.
    pub const SUBSAMPLING: [usize; 3] = [206, 17, 0];
    /// Burn-in steps per (re)built chain, per level.
    pub const BURN_IN: [usize; 3] = [500, 100, 20];

    /// Distribute `n_chains` chains over levels proportionally to the optimal
    /// effort share `√(V_l C_l)` ([`apportion`](super::apportion)).
    pub fn distribute_chains(n_chains: usize, variances: &[f64], costs: &[f64]) -> Vec<usize> {
        let effort = |(&v, &c): (&f64, &f64)| (v.max(1e-30) * c).sqrt();
        let weights: Vec<f64> = variances.iter().zip(costs).map(effort).collect();
        super::apportion(n_chains, &weights)
    }

    /// `samples` on `chains` as the shipped role machines in virtual time:
    /// the [`StandIn`] target at Table 3's subsampling, an evaluation
    /// costing its level's [`EVAL_TIME`] (lognormal `eval_jitter`), a
    /// phonebook message 0.2 ms and a collector message 10 µs (surplus
    /// corrections included: a slower collector than its level's
    /// producers queues without bound); `seed` is the chains' and the
    /// deliveries'.
    pub fn simulate(
        samples: &[usize],
        chains: &[usize],
        eval_jitter: f64,
        load_balancing: bool,
        seed: u64,
    ) -> RuntimeReport {
        let mut config = RuntimeConfig::new(samples.to_vec(), chains.to_vec());
        config.base.burn_in = BURN_IN.to_vec();
        config.base.load_balancing = load_balancing;
        config.base.seed = seed;
        let cost = SimCost {
            eval_time: EVAL_TIME.to_vec(),
            eval_jitter,
            phonebook_service_time: 2e-4,
            collector_service_time: 1e-5,
            latency: 0.0,
            poll_budget: usize::MAX,
        };
        let (model, off) = (StandIn::new(SUBSAMPLING.to_vec()), Tracer::disabled());
        let placement = Placement::Sim { cost: &cost, seed };
        let run = Run::new(&model, &config, &off, None, None);
        run.on(placement)
            .expect("an unbounded simulated run finishes")
    }

    /// Fraction of the controllers' time a simulated run spent evaluating
    /// models (utilization).
    pub fn busy_fraction(run: &RuntimeReport) -> f64 {
        let busy: f64 = run.busy_per_level.iter().flatten().sum();
        let n_chains = run.report.n_ranks - 2 - run.report.levels.len();
        (busy / (run.report.elapsed * n_chains as f64).max(f64::MIN_POSITIVE)).min(1.0)
    }
}

/// Fixtures of the forward-solve-pipeline rungs of the repo's benchmark
/// (`benchmark/src/ladder.rs`): the κ field, multigrid hierarchy and θ
/// chain they measure.
pub mod pipeline_bench {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uq_fem::poisson::build_mg_hierarchy;
    use uq_fem::StructuredGrid;
    use uq_linalg::mg::GmgHierarchy;
    use uq_linalg::prob::standard_normal_vec;

    /// Deterministic mildly varying diffusion field for kernel benches.
    pub fn bench_kappa(grid: &StructuredGrid) -> Vec<f64> {
        (0..grid.n_elements())
            .map(|e| 1.0 + 0.5 * ((e % 7) as f64 / 7.0))
            .collect()
    }

    /// The production multigrid hierarchy for the bench κ.
    ///
    /// # Panics
    /// Panics if the mesh cannot be coarsened (odd or `n ≤ 4`).
    pub fn bench_hierarchy(fine_n: usize) -> GmgHierarchy {
        let kappa = bench_kappa(&StructuredGrid::new(fine_n));
        build_mg_hierarchy(fine_n, &kappa).expect("bench meshes support MG")
    }

    /// A pCN-like chain of parameter states (β = 0.2): consecutive
    /// draws are correlated like accepted MCMC moves, so warm starts
    /// help realistically — but every bench iteration performs a
    /// genuine solve. Timing one fixed θ would degenerate: after the
    /// first call the warm start is the exact solution and CG does 0
    /// iterations, reducing "forward" timings to pure operator-update
    /// cost.
    pub fn theta_chain(seed: u64, dim: usize, len: usize) -> Vec<Vec<f64>> {
        let beta = 0.2f64;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut states = Vec::with_capacity(len);
        let mut current = standard_normal_vec(&mut rng, dim);
        for _ in 0..len {
            let noise = standard_normal_vec(&mut rng, dim);
            current = current
                .iter()
                .zip(&noise)
                .map(|(c, z)| (1.0 - beta * beta).sqrt() * c + beta * z)
                .collect();
            states.push(current.clone());
        }
        states
    }
}

#[cfg(test)]
mod tests {
    use super::table3::{distribute_chains, EVAL_TIME, VARIANCES};
    use super::*;

    #[test]
    fn csv_formatting() {
        let csv = to_csv("a,b", &[vec![1.0, 2.5], vec![3.0, -4.0]]);
        assert_eq!(csv, "a,b\n1,2.5\n3,-4\n");
    }

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["level", "value"],
            &[
                vec!["0".into(), "1.5".into()],
                vec!["10".into(), "22.75".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("level"));
        assert!(lines[3].ends_with("22.75"));
    }

    #[test]
    fn distribute_chains_respects_weights() {
        let chains = distribute_chains(10, &[0.15, 0.001, 0.00004], &[0.003, 0.045, 0.93]);
        assert_eq!(chains.iter().sum::<usize>(), 10);
        assert!(chains.iter().all(|&c| c >= 1));
        assert!(chains[0] >= chains[2], "coarse carries most: {chains:?}");
    }

    /// Exactly `n_chains`, one or more a level, monotone in the weight.
    fn assert_apportioned(chains: &[usize], n_chains: usize, weights: &[f64]) {
        assert_eq!(chains.iter().sum::<usize>(), n_chains, "{chains:?}");
        assert!(chains.iter().all(|&c| c >= 1), "{chains:?}");
        for (a, b) in (0..chains.len()).flat_map(|a| (0..chains.len()).map(move |b| (a, b))) {
            let ordered = weights[a] <= weights[b] || chains[a] >= chains[b];
            assert!(ordered, "{chains:?} against weights {weights:?}");
        }
    }

    #[test]
    fn every_rank_count_of_figs_11_and_12_gets_all_its_chains() {
        let weights: Vec<f64> = (0..3)
            .map(|l| (VARIANCES[l] * EVAL_TIME[l]).sqrt())
            .collect();
        for ranks in [32usize, 64, 128, 256, 512, 1024] {
            let chains = distribute_chains(ranks - 5, &VARIANCES, &EVAL_TIME);
            assert_apportioned(&chains, ranks - 5, &weights);
        }
        // the axis label is the rank count: 1019 chains, not 770
        let at_1024 = distribute_chains(1019, &VARIANCES, &EVAL_TIME);
        assert_eq!(at_1024, [637, 204, 178]);
    }

    proptest::proptest! {
        #[test]
        fn any_chain_count_is_apportioned_exactly_and_monotonically(
            extra in 0usize..5000,
            weights in proptest::collection::vec(1e-6f64..1e3, 1..7),
        ) {
            let n_chains = weights.len() + extra;
            assert_apportioned(&apportion(n_chains, &weights), n_chains, &weights);
        }
    }

    #[test]
    fn write_output_roundtrip() {
        let dir = std::env::temp_dir().join("uq_bench_test_out");
        let p = write_output(&dir, "t.csv", "x\n1\n");
        assert_eq!(std::fs::read_to_string(p).unwrap(), "x\n1\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
