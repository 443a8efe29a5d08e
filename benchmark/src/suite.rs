//! The whole suite from one command: every workload in a fresh child
//! process, one at a time (clean `VmHWM`, no allocator or cache state
//! carried from one workload to the next), and the A/A check that runs
//! the suite ten times and compares two interleaved sets of runs of the
//! same code against the bounds.

use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::log;
use crate::spec::{self, Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, relative_iqr};
use crate::workloads::Kind;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

/// One child's parsed result line.
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Parse the last line of a child's standard output.
pub fn parse_result_line(stdout: &str) -> Result<ChildResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    let doc = json::parse(line)?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("result line has no number '{key}'"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result line has no 'metrics' object")?
        .iter()
        .map(|(name, entry)| {
            entry
                .get("value")
                .and_then(Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or(format!("metric '{name}' has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildResult {
        correct: doc
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or("result line has no 'correct'")?,
        attempted: number("attempted")? as u64,
        failed: number("failed")? as u64,
        metrics,
    })
}

/// Run one workload in a child process of this same executable and wait
/// for it; its progress lines pass through on standard error.
fn run_child(kind: Kind, args: &SuiteArgs) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("run")
        .args(["--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn {}: {e}", kind.name()))?;
    let result = parse_result_line(&String::from_utf8_lossy(&output.stdout))?;
    if !output.status.success() && result.correct {
        return Err(format!("{} exited with {}", kind.name(), output.status));
    }
    Ok(result)
}

fn catalogue(traced: bool) -> &'static [Metric] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Run every workload once; print one row per metric with a column per
/// workload. Returns whether every child ran and every check passed.
pub fn run_suite(args: &SuiteArgs) -> bool {
    let mut columns: Vec<(Kind, Result<ChildResult, String>)> = Vec::new();
    for kind in Kind::ALL {
        log(&format!("--- {} ---", kind.name()));
        columns.push((kind, run_child(kind, args)));
    }
    let mut ok = true;
    let mut header = format!("{:<28} {:<10}", "metric", "unit");
    for (kind, _) in &columns {
        header.push_str(&format!(" {:>16}", kind.name()));
    }
    println!("{header}");
    let row = |label: &str, unit: &str, cell: &dyn Fn(&ChildResult) -> String| {
        let mut line = format!("{label:<28} {unit:<10}");
        for (_, result) in &columns {
            let text = result.as_ref().map_or("-".to_string(), cell);
            line.push_str(&format!(" {text:>16}"));
        }
        println!("{line}");
    };
    for m in catalogue(args.traced) {
        row(m.name, m.unit, &|r: &ChildResult| {
            r.metrics
                .iter()
                .find(|(name, _)| name == m.name)
                .map_or("missing".to_string(), |(_, v)| format!("{v:.6}"))
        });
    }
    row("operations attempted", "count", &|r| {
        r.attempted.to_string()
    });
    row("operations failed", "count", &|r| r.failed.to_string());
    for (kind, result) in &columns {
        match result {
            Ok(r) if r.correct && r.failed == 0 => {}
            Ok(r) => {
                ok = false;
                println!(
                    "FAILED {}: {} of {} operations",
                    kind.name(),
                    r.failed,
                    r.attempted
                );
            }
            Err(e) => {
                ok = false;
                println!("FAILED {}: {e}", kind.name());
            }
        }
    }
    ok
}

pub struct AaArgs {
    pub sets: usize,
    pub runs: usize,
    pub seed: u64,
    pub seconds: f64,
}

/// What the A/A check found for one end-to-end metric on one workload.
pub struct AaCell {
    pub medians: Vec<f64>,
    /// Largest relative gap between two sets' medians.
    pub gap: f64,
    /// Interquartile range over median of all runs pooled.
    pub spread: f64,
}

/// Compare `sets` (each a list of values from runs of the same code).
pub fn aa_cell(sets: &[Vec<f64>]) -> AaCell {
    let medians: Vec<f64> = sets.iter().map(|s| median(s)).collect();
    let mut gap = 0.0f64;
    for a in &medians {
        for b in &medians {
            gap = gap.max((a - b).abs() / a.abs().min(b.abs()));
        }
    }
    let pooled: Vec<f64> = sets.iter().flatten().copied().collect();
    AaCell {
        medians,
        gap,
        spread: relative_iqr(&pooled),
    }
}

/// Largest A/A gap an end-to-end metric may show: one that cannot repeat
/// within a tenth is demoted to a per-layer metric, not shipped with a
/// bound it cannot hold.
const MAX_GAP: f64 = 0.10;

/// Run the untraced suite `sets × runs` times, dealing the runs to the
/// sets in turn (A B A B …) so slow drift of the host hits every set
/// alike; run `k` of every set uses seed `seed + k`. Fails if any
/// end-to-end metric's gap exceeds [`MAX_GAP`] or twice its gap exceeds
/// its bound, or if its pooled spread (what the driver measures over ten
/// seeds) exceeds its bound.
pub fn run_aa(args: &AaArgs) -> bool {
    assert!(
        args.sets >= 2 && args.runs >= 2,
        "aa: need 2+ sets of 2+ runs"
    );
    // one record per (workload, metric, set, run)
    let mut records: Vec<(Kind, &'static str, usize, f64)> = Vec::new();
    let mut ok = true;
    for k in 0..args.runs {
        for set in 0..args.sets {
            log(&format!("=== aa: set {} run {} ===", set_label(set), k + 1));
            let suite = SuiteArgs {
                seed: args.seed + k as u64,
                seconds: args.seconds,
                traced: false,
                quick: false,
            };
            for kind in Kind::ALL {
                match run_child(kind, &suite) {
                    Ok(result) => {
                        ok &= result.correct && result.failed == 0;
                        for metric in &END_TO_END {
                            match result.metrics.iter().find(|(n, _)| n == metric.name) {
                                Some((_, v)) => records.push((kind, metric.name, set, *v)),
                                None => ok = false,
                            }
                        }
                    }
                    Err(e) => {
                        ok = false;
                        println!("FAILED {}: {e}", kind.name());
                    }
                }
            }
        }
    }
    let sets_of = |kind: Kind, metric: &str| -> Vec<Vec<f64>> {
        (0..args.sets)
            .map(|set| {
                records
                    .iter()
                    .filter(|r| r.0 == kind && r.1 == metric && r.2 == set)
                    .map(|r| r.3)
                    .collect()
            })
            .collect()
    };

    println!(
        "{:<16} {:<12} {:>4}  medians per set {:>24}  {:>7} {:>7}  quartiles (pooled)",
        "workload", "metric", "n", "", "gap", "iqr/med"
    );
    let mut worst_gap = vec![0.0f64; END_TO_END.len()];
    let mut worst_spread = vec![0.0f64; END_TO_END.len()];
    for kind in Kind::ALL {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let sets = sets_of(kind, metric.name);
            if sets.iter().any(|s| s.len() < 2) {
                println!("{:<16} {:<12} incomplete", kind.name(), metric.name);
                ok = false;
                continue;
            }
            let cell = aa_cell(&sets);
            worst_gap[m] = worst_gap[m].max(cell.gap);
            worst_spread[m] = worst_spread[m].max(cell.spread);
            let pooled: Vec<f64> = sets.iter().flatten().copied().collect();
            let [q1, q2, q3] = quartiles(&pooled);
            let medians: Vec<String> = cell.medians.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{:<16} {:<12} {:>4}  {:<40}  {:>6.2}% {:>6.2}%  [{q1:.4} {q2:.4} {q3:.4}] {}",
                kind.name(),
                metric.name,
                pooled.len(),
                medians.join(" / "),
                cell.gap * 100.0,
                cell.spread * 100.0,
                metric.unit
            );
        }
    }
    println!();
    for (m, metric) in END_TO_END.iter().enumerate() {
        let bound = metric.bound.expect("end-to-end metrics are bounded");
        let (gap, spread) = (worst_gap[m], worst_spread[m]);
        let verdict = if gap > MAX_GAP {
            "  <-- A/A gap above 10 %: demote to per-layer before merge"
        } else if 2.0 * gap > bound || spread > bound {
            "  <-- bound too tight for this noise"
        } else {
            ""
        };
        ok &= verdict.is_empty();
        println!(
            "{:<12} worst A/A gap {:>6.2}%  worst spread {:>6.2}%  bound {:.2}{verdict}",
            metric.name,
            gap * 100.0,
            spread * 100.0,
            bound
        );
    }
    ok
}

fn set_label(set: usize) -> char {
    (b'A' + (set % 26) as u8) as char
}

/// `BENCHMARK.json` for this catalogue.
pub fn benchmark_json() -> Value {
    let s = |text: &str| Value::Str(text.to_string());
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name".to_string(), s(m.name)),
            ("unit".to_string(), s(m.unit)),
            ("better".to_string(), s(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound".to_string(), Value::Num(bound)));
        }
        Value::Obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Value::Obj(vec![
        (
            "command".to_string(),
            Value::Arr(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths".to_string(), Value::Arr(vec![s("benchmark")])),
        (
            "run_seconds".to_string(),
            Value::Num(spec::RUN_SECONDS as f64),
        ),
        (
            "workloads".to_string(),
            Value::Arr(
                Kind::ALL
                    .into_iter()
                    .map(|kind| {
                        Value::Obj(vec![
                            ("name".to_string(), s(kind.name())),
                            ("why".to_string(), s(spec::why(kind))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".to_string(),
            Value::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer".to_string(),
            Value::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_found_after_other_output() {
        let stdout = "progress\n{\"correct\": true, \"attempted\": 9, \"failed\": 0, \
                      \"metrics\": {\"tte_s\": {\"value\": 1.25, \"unit\": \"s\"}}}\n\n";
        let r = parse_result_line(stdout).expect("parses");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (9, 0));
        assert_eq!(r.metrics, vec![("tte_s".to_string(), 1.25)]);
        assert!(parse_result_line("").is_err());
        assert!(parse_result_line("not json\n").is_err());
        assert!(parse_result_line("{\"correct\": true}\n").is_err());
    }

    #[test]
    fn aa_gap_is_the_relative_distance_of_the_set_medians() {
        let cell = aa_cell(&[
            vec![1.0, 1.02, 0.98, 1.01, 0.99],
            vec![1.05, 1.04, 1.06, 1.05, 1.03],
        ]);
        assert_eq!(cell.medians, vec![1.0, 1.05]);
        assert!((cell.gap - 0.05).abs() < 1e-12);
        assert!(cell.spread > 0.0);
    }

    #[test]
    fn generated_benchmark_json_round_trips() {
        let doc = benchmark_json();
        let text = doc.render_pretty();
        assert!(text.len() < 64 * 1024);
        let back = json::parse(&text).expect("parses");
        assert_eq!(back, doc);
        let e2e = back.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(e2e[0].get("name").and_then(Value::as_str), Some("tte_s"));
        assert_eq!(e2e[1].get("bound").and_then(Value::as_f64), Some(0.25));
        let layer = back.get("per_layer").and_then(Value::as_arr).unwrap();
        assert!(layer.iter().all(|m| m.get("bound").is_none()));
        let command = back.get("command").and_then(Value::as_arr).unwrap();
        assert!(command.len() <= 32);
    }
}
