//! # uq-bench
//!
//! Experiment harness regenerating every table and figure of the paper
//! (see DESIGN.md §4 for the experiment index) plus Criterion
//! micro-benchmarks of the underlying kernels.
//!
//! Each experiment is a binary under `src/bin/`; all of them accept
//! `--paper` to run at the paper's full scale and default to CI-sized
//! parameters otherwise. Outputs go to `results/` as CSV plus a printed
//! table mirroring the paper's layout.

#![deny(rustdoc::broken_intra_doc_links)]

use std::io::Write;
use std::path::{Path, PathBuf};
use uq_mlmcmc::RunStore;

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
    /// Persist a consistent-cut snapshot to the run store every this
    /// many recorded top-level corrections (0 = checkpointing off).
    pub checkpoint_every: usize,
    /// Resume from the latest matching snapshot in the run store
    /// instead of starting from scratch.
    pub resume: bool,
    /// Crash-injection: abort the process at the n-th snapshot (the
    /// equivalence harness re-launches with `--resume`).
    pub crash_at: Option<usize>,
    /// Write a Chrome trace-event JSON (Perfetto-loadable) of the
    /// traced study phases to this file under `out_dir`.
    pub trace_out: Option<String>,
    /// Write a `MetricsSnapshot` JSON (counters, histograms, per-rank /
    /// per-level activity) to this file under `out_dir`.
    pub metrics_out: Option<String>,
    /// Print a periodic live progress line (stderr) while the traced
    /// phases run.
    pub progress: bool,
    /// Multi-process TCP transport role (`scaling_live` only):
    /// `driver` binds `--listen` and assembles the universe, `worker`
    /// connects to `--connect` and hosts assigned ranks.
    pub net: Option<String>,
    /// Listen address for `--net driver` (default `127.0.0.1:0`, an
    /// OS-assigned port printed at startup; CI passes a fixed port so
    /// worker processes can rendezvous without parsing driver output).
    pub listen: String,
    /// Driver address for `--net worker`.
    pub connect: String,
    /// Worker processes the driver waits for at rendezvous.
    pub net_workers: usize,
    /// `--net worker`: join an already-running universe elastically
    /// (admitted at a checkpoint barrier) instead of taking part in the
    /// initial rendezvous.
    pub join: bool,
    /// `--net worker`: depart at this checkpoint barrier, migrating the
    /// hosted ranks back to the driver.
    pub leave_at: Option<u64>,
}

impl ExpArgs {
    /// Parse from `std::env::args`. Recognizes `--paper`,
    /// `--out <dir>`, `--seed <n>`, `--model <name>`,
    /// `--checkpoint-every <n>`, `--resume`, `--crash-at <n>`,
    /// `--trace-out <file>`, `--metrics-out <file>`, `--progress`,
    /// `--net <driver|worker>`, `--listen <addr>`, `--connect <addr>`,
    /// `--net-workers <n>`, `--join`, `--leave-at <barrier>`.
    pub fn parse() -> Self {
        let mut args = ExpArgs {
            paper: false,
            out_dir: PathBuf::from("results"),
            seed: 20210730,
            model: String::from("gauss"),
            checkpoint_every: 0,
            resume: false,
            crash_at: None,
            trace_out: None,
            metrics_out: None,
            progress: false,
            net: None,
            listen: String::from("127.0.0.1:0"),
            connect: String::from("127.0.0.1:9417"),
            net_workers: 2,
            join: false,
            leave_at: None,
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
                "--checkpoint-every" => {
                    args.checkpoint_every = iter
                        .next()
                        .expect("--checkpoint-every needs a value")
                        .parse()
                        .expect("--checkpoint-every must be an integer");
                }
                "--resume" => args.resume = true,
                "--crash-at" => {
                    args.crash_at = Some(
                        iter.next()
                            .expect("--crash-at needs a value")
                            .parse()
                            .expect("--crash-at must be an integer"),
                    );
                }
                "--trace-out" => {
                    args.trace_out = Some(iter.next().expect("--trace-out needs a value"));
                }
                "--metrics-out" => {
                    args.metrics_out = Some(iter.next().expect("--metrics-out needs a value"));
                }
                "--progress" => args.progress = true,
                "--net" => {
                    let role = iter.next().expect("--net needs driver or worker");
                    assert!(
                        role == "driver" || role == "worker",
                        "--net must be driver or worker, got {role}"
                    );
                    args.net = Some(role);
                }
                "--listen" => {
                    args.listen = iter.next().expect("--listen needs an address");
                }
                "--connect" => {
                    args.connect = iter.next().expect("--connect needs an address");
                }
                "--net-workers" => {
                    args.net_workers = iter
                        .next()
                        .expect("--net-workers needs a value")
                        .parse()
                        .expect("--net-workers must be an integer");
                }
                "--join" => args.join = true,
                "--leave-at" => {
                    args.leave_at = Some(
                        iter.next()
                            .expect("--leave-at needs a value")
                            .parse()
                            .expect("--leave-at must be an integer"),
                    );
                }
                other => {
                    panic!(
                        "unknown argument: {other} (expected --paper/--out/--seed/--model/\
                         --checkpoint-every/--resume/--crash-at/--trace-out/--metrics-out/\
                         --progress/--net/--listen/--connect/--net-workers/--join/--leave-at)"
                    )
                }
            }
        }
        args
    }

    /// Open the content-addressed run store that indexes this
    /// invocation's artifacts and snapshots: `<out_dir>/store`.
    pub fn run_store(&self) -> RunStore {
        RunStore::open(self.out_dir.join("store")).expect("cannot open run store")
    }
}

/// Incremental builder for the hand-rolled `BENCH_*.json` artifacts.
/// Centralizes the indentation and trailing-comma bookkeeping that was
/// previously duplicated (and had started to drift) across the
/// experiment binaries; [`write_bench`] then lands the result both on
/// disk and in the run-store manifest.
#[derive(Default)]
pub struct BenchJson {
    parts: Vec<String>,
}

impl BenchJson {
    pub fn new() -> Self {
        Self::default()
    }

    /// Top-level field with a raw (already JSON-rendered) value:
    /// numbers, booleans, `{:?}`-printed numeric lists.
    pub fn field(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.parts.push(format!("  \"{key}\": {value}"));
        self
    }

    /// Top-level string field (the value is quoted).
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.parts.push(format!("  \"{key}\": \"{value}\""));
        self
    }

    /// Top-level array of pre-rendered JSON items (typically one
    /// `{ ... }` object per line).
    pub fn array(&mut self, key: &str, items: &[String]) -> &mut Self {
        let body: Vec<String> = items.iter().map(|i| format!("    {i}")).collect();
        self.parts
            .push(format!("  \"{key}\": [\n{}\n  ]", body.join(",\n")));
        self
    }

    /// Render the complete JSON document.
    pub fn finish(&self) -> String {
        format!("{{\n{}\n}}\n", self.parts.join(",\n"))
    }
}

/// Write a bench artifact to `<out_dir>/<name>` **and** register it in
/// the run-store manifest (`<out_dir>/store/manifest.jsonl`), turning
/// the ad-hoc output file into a queryable run record.
pub fn write_bench(out_dir: &Path, name: &str, content: &str) -> PathBuf {
    let path = write_output(out_dir, name, content);
    RunStore::open(out_dir.join("store"))
        .and_then(|store| store.record_bench(name, content))
        .expect("cannot register bench artifact in the run store");
    path
}

/// [`write_bench`] for CSV artifacts: format with [`to_csv`], write,
/// and register in the run-store manifest.
pub fn write_bench_csv(out_dir: &Path, name: &str, header: &str, rows: &[Vec<f64>]) -> PathBuf {
    write_bench(out_dir, name, &to_csv(header, rows))
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

/// Shared fixtures for the forward-solve-pipeline benchmarks, used by
/// both the criterion harnesses (`benches/kernels.rs`,
/// `benches/models.rs`) and the repo's benchmark (`benchmark/`) so all
/// of them measure the same κ field, multigrid hierarchy and θ chain —
/// a tweak in one place cannot silently diverge from the others.
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
    fn bench_json_builder_and_manifest_registration() {
        let dir = std::env::temp_dir().join(format!("uq-bench-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut j = BenchJson::new();
        j.field("pr", 6).field_str("model", "gauss").array(
            "sweep",
            &[
                "{ \"ranks\": 1 }".to_string(),
                "{ \"ranks\": 2 }".to_string(),
            ],
        );
        let json = j.finish();
        assert_eq!(
            json,
            "{\n  \"pr\": 6,\n  \"model\": \"gauss\",\n  \"sweep\": [\n    { \"ranks\": 1 },\n    { \"ranks\": 2 }\n  ]\n}\n"
        );
        let p = write_bench(&dir, "BENCH_T.json", &json);
        assert_eq!(std::fs::read_to_string(p).unwrap(), json);
        let store = RunStore::open(dir.join("store")).unwrap();
        let recs = store.manifest_records().unwrap();
        assert!(recs
            .iter()
            .any(|r| r.get("kind") == Some("bench") && r.get("name") == Some("BENCH_T.json")));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn write_output_roundtrip() {
        let dir = std::env::temp_dir().join("uq_bench_test_out");
        let p = write_output(&dir, "t.csv", "x\n1\n");
        assert_eq!(std::fs::read_to_string(p).unwrap(), "x\n1\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
