//! The repo's benchmark. See `README.md` for the catalogue and the
//! reasoning; `BENCHMARK.json` at the repo root for the driver's view.
//!
//! ```text
//! benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//!     one workload in this process; the last line of standard output is
//!     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//! benchmark run [--traced] [--quick] [--seed <n>] [--seconds <s>]
//!     every workload, each in a fresh child process, as a table
//! benchmark aa [--sets 2] [--runs 5] [--seed <n>] [--seconds <s>]
//!     A/A check: two interleaved sets of suite runs of the same code
//! benchmark sensitivity [--workload <name>] [--seed <n>]
//!     inject known extra work and check that the timings show it
//! benchmark refs
//!     print refs/forward.txt for the current code
//! benchmark spec
//!     print BENCHMARK.json for the catalogue
//! ```
//! Every form exits nonzero if an operation or a correctness check failed.

mod host;
mod json;
mod ladder;
mod refs;
mod run;
mod spec;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

use workloads::Kind;

/// Progress goes to standard error; standard output carries results.
fn log(line: &str) {
    eprintln!("[benchmark] {line}");
}

#[derive(Debug, Default, PartialEq)]
struct Cli {
    command: String,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    sets: Option<usize>,
    runs: Option<usize>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: args.first().cloned().ok_or("missing command")?,
        ..Cli::default()
    };
    let mut iter = args[1..].iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: '{text}' is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.to_string()),
            "--seed" => cli.seed = Some(number(flag, value()?)?),
            "--seconds" => {
                let seconds: f64 = number(flag, value()?)?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} outside 0..3600"));
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--traced" => cli.trace = true,
            "--quick" => cli.quick = true,
            "--sets" => cli.sets = Some(number(flag, value()?)?),
            "--runs" => cli.runs = Some(number(flag, value()?)?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

fn kind_named(name: &str) -> Result<Kind, String> {
    Kind::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload '{name}' (known: {})", known.join(", "))
    })
}

fn dispatch(cli: &Cli) -> Result<bool, String> {
    let seed = cli.seed.unwrap_or(spec::DEFAULT_SEED);
    let seconds = cli.seconds.unwrap_or(spec::RUN_SECONDS as f64);
    match (cli.command.as_str(), &cli.workload) {
        ("run", Some(name)) => {
            let kind = kind_named(name)?;
            let outcome = run::run(&run::RunArgs {
                kind,
                seed,
                seconds,
                traced: cli.trace,
                quick: cli.quick,
            });
            println!("{}", outcome.to_json().render());
            Ok(outcome.failures.is_empty())
        }
        ("run", None) => Ok(suite::run_suite(&suite::SuiteArgs {
            seed,
            seconds,
            traced: cli.trace,
            quick: cli.quick,
        })),
        ("aa", _) => Ok(suite::run_aa(&suite::AaArgs {
            sets: cli.sets.unwrap_or(2),
            runs: cli.runs.unwrap_or(5),
            seed,
            seconds,
        })),
        ("sensitivity", workload) => {
            let kinds = match workload {
                Some(name) => vec![kind_named(name)?],
                None => Kind::ALL.to_vec(),
            };
            // every workload runs even after one fails
            let mut ok = true;
            for kind in kinds {
                ok &= run::sensitivity(kind, seed);
            }
            Ok(ok)
        }
        ("refs", _) => {
            print!("{}", refs::regenerate());
            Ok(true)
        }
        ("spec", _) => {
            print!("{}", suite::benchmark_json().render_pretty());
            Ok(true)
        }
        (other, _) => Err(format!(
            "unknown command '{other}' (run, aa, sensitivity, refs, spec)"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| dispatch(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_argument_form_parses() {
        let cli = parse_cli(&words(
            "run --workload poisson_net --seed 7 --seconds 12 --trace 1",
        ))
        .expect("parses");
        assert_eq!(cli.command, "run");
        assert_eq!(cli.workload.as_deref(), Some("poisson_net"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace),
            (Some(7), Some(12.0), true)
        );
        let cli = parse_cli(&words("aa --sets 2 --runs 5")).expect("parses");
        assert_eq!((cli.sets, cli.runs), (Some(2), Some(5)));
    }

    /// `--quick`: one repetition at a tenth of the size through the same
    /// code — every workload, both passes, every check, every rung.
    #[test]
    fn quick_mode_runs_every_workload_through_both_passes() {
        for kind in Kind::ALL {
            for traced in [false, true] {
                let outcome = run::run(&run::RunArgs {
                    kind,
                    seed: spec::DEFAULT_SEED,
                    seconds: 0.0,
                    traced,
                    quick: true,
                });
                let label = format!("{} (traced: {traced})", kind.name());
                assert!(
                    outcome.failures.is_empty(),
                    "{label}: {:?}",
                    outcome.failures
                );
                assert!(outcome.attempted >= 1, "{label}");
                let catalogue: Vec<&str> = if traced {
                    spec::PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    spec::END_TO_END.iter().map(|m| m.name).collect()
                };
                let reported: Vec<&str> = outcome.metrics.iter().map(|&(n, _)| n).collect();
                assert_eq!(reported, catalogue, "{label}");
                for &(name, value) in &outcome.metrics {
                    assert!(value.is_finite(), "{label}: {name} = {value}");
                    assert!(traced || value > 0.0, "{label}: {name} = {value}");
                }
                // the result line parses back to the same numbers
                let line = outcome.to_json().render();
                let back = suite::parse_result_line(&line).expect("result line parses");
                assert!(back.correct && back.failed == 0, "{label}");
                assert_eq!(back.attempted, outcome.attempted);
                for ((name, value), (back_name, back_value)) in
                    outcome.metrics.iter().zip(&back.metrics)
                {
                    assert_eq!(*name, back_name.as_str());
                    assert_eq!(*value, *back_value, "{label}: {name}");
                }
            }
        }
        assert!(
            !std::path::Path::new(".bench_tmp").exists(),
            "scratch directories were left behind"
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "",
            "run --workload",
            "run --seed x",
            "run --trace 2",
            "run --seconds -1",
            "run --seconds nan",
            "run --frobnicate",
        ] {
            assert!(parse_cli(&words(bad)).is_err(), "accepted '{bad}'");
        }
        let cli = parse_cli(&words("run --workload nope")).unwrap();
        assert!(dispatch(&cli).is_err());
        assert!(dispatch(&parse_cli(&words("bogus")).unwrap()).is_err());
    }
}
