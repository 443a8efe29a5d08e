//! The measurement protocol for one workload in this process.
//!
//! Untraced pass (`--trace 0`, the end-to-end metrics): set up five
//! times, each from nothing to the end of a warm-up repetition, and keep
//! the last; check the model against the committed reference
//! outputs and the digests against reference runs; then repeat the
//! identical seeded work for `--seconds` and report the **median** over
//! the repetitions of each one's wall and CPU time, both divided by the
//! host slowdown measured on the worker threads during that repetition
//! (`host::pace`).
//!
//! Traced pass (`--trace 1`, the per-layer metrics): a few untraced and a
//! few traced repetitions of the same work (the program's tracer on, the
//! benchmark's timer around every forward evaluation), the reference runs
//! the ratios need, and the kernel ladder.
//!
//! Sensitivity check (`benchmark sensitivity`): repetitions with known
//! extra work injected, to show that the normalised timings move by what
//! was injected.

use std::time::Instant;

use crate::json::Value;
use crate::ladder;
use crate::refs;
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::workloads::{self, Inject, JobRecord, Kind, Prepared, Rep, Scale, WARM_ORDINAL};
use crate::{host, log};

/// Set-ups per untraced run, `setup_s` being their median.
const SETUPS: usize = 5;
/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Repetitions per side in the traced pass.
const TRACED_REPS: usize = 3;
/// Untraced mixes of `service_mix` in the traced pass: 112 jobs, the
/// fewest with ten beyond their 90th percentile.
const TRACED_PASS_MIXES: usize = 7;
/// Rounds of one repetition per injection in the sensitivity check.
const SENSITIVITY_ROUNDS: usize = 24;

pub struct RunArgs {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// One repetition at a tenth of the size: exercises every code path
    /// of both passes in seconds. Not a measurement.
    pub quick: bool,
}

/// What the last line of standard output reports.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The one-line result object of the driver's contract.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = spec::unit_of(name).expect("metric is in the catalogue");
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("value".to_string(), Value::Num(value)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("correct".to_string(), Value::Bool(self.failures.is_empty())),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            (
                "failed".to_string(),
                Value::Num(self.failures.len().min(self.attempted as usize) as f64),
            ),
            ("metrics".to_string(), Value::Obj(metrics)),
        ])
    }
}

/// Accumulates attempted operations and failure lines across phases.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, phase: &str, rep: &mut Rep) {
        self.attempted += rep.attempted;
        for failure in rep.failures.drain(..) {
            self.failures.push(format!("{phase}: {failure}"));
        }
    }

    fn extend(&mut self, phase: &str, failures: Vec<String>) {
        self.failures
            .extend(failures.into_iter().map(|f| format!("{phase}: {f}")));
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let outcome = if args.traced {
        traced_pass(args)
    } else {
        untraced_pass(args)
    };
    for failure in &outcome.failures {
        log(&format!("FAILED {failure}"));
    }
    outcome
}

/// Set up from nothing through the warm-up repetition (the `k`th of this
/// process); returns the prepared workload, its warm-up and the
/// (speed-normalised) seconds the whole took.
fn timed_set_up(args: &RunArgs, traced: bool, k: usize) -> (Prepared, Rep, f64) {
    let pace = host::pace_mark();
    let start = Instant::now();
    let mut prepared = Prepared::set_up(args.kind, args.seed, args.quick, traced);
    let warm = prepared.repetition(Scale::Warm, WARM_ORDINAL + k as u64);
    let seconds = start.elapsed().as_secs_f64() / pace.slowdown();
    (prepared, warm, seconds)
}

/// Repeat the full-size work (repetition `i` at ordinal `i`): until
/// `seconds` have passed and at least `min_reps` are done, or exactly
/// `min_reps` times when `seconds` is 0.
fn repeat(
    prepared: &mut Prepared,
    seconds: f64,
    min_reps: usize,
    phase: &str,
    expected_digest: Option<u64>,
    tally: &mut Tally,
) -> Vec<Rep> {
    let kind = prepared.kind();
    let mut reps: Vec<Rep> = Vec::new();
    let start = Instant::now();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let watermark_reset = host::reset_peak_rss();
        let mut rep = prepared.repetition(Scale::Full, reps.len() as u64);
        if watermark_reset {
            rep.peak_rss_mb = host::peak_rss_mb();
        }
        tally.absorb(phase, &mut rep);
        let expected = expected_digest.or_else(|| {
            reps.first()
                .filter(|_| kind.deterministic())
                .map(|first| first.digest)
        });
        if let Some(expected) = expected.filter(|&d| d != rep.digest) {
            tally.failures.push(format!(
                "{phase}: repetition {} digest {:#x} differs from {expected:#x}",
                reps.len(),
                rep.digest
            ));
        }
        reps.push(rep);
    }
    let column = |f: &dyn Fn(&Rep) -> f64| {
        reps.iter()
            .map(|r| format!("{:.3}", f(r)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    log(&format!(
        "{} {phase} wall s: {}",
        kind.name(),
        column(&|r| r.wall_s)
    ));
    log(&format!(
        "{} {phase} slowdown: {}",
        kind.name(),
        column(&|r| r.slowdown)
    ));
    reps
}

fn medians(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

fn untraced_pass(args: &RunArgs) -> Outcome {
    let kind = args.kind;
    let mut tally = Tally::default();

    let mut setups: Vec<f64> = Vec::with_capacity(SETUPS);
    let mut kept: Option<(Prepared, Rep)> = None;
    for k in 0..if args.quick { 1 } else { SETUPS } {
        // tear the previous set-up down first: each one starts from nothing
        drop(kept.take());
        let (prepared, mut warm, seconds) = timed_set_up(args, false, k);
        tally.absorb("warm-up", &mut warm);
        setups.push(seconds);
        kept = Some((prepared, warm));
    }
    let (mut prepared, warm) = kept.expect("at least one set-up");
    log(&format!(
        "{}: set-up {:.3} s (median of {})",
        kind.name(),
        median(&setups),
        setups.len()
    ));

    tally.extend(
        "reference outputs",
        refs::compare(kind.model_key(), &prepared.forward_at_reference()),
    );
    let verified = prepared.verify(&warm);
    tally.extend("cross-check", verified.failures);

    let (seconds, min_reps) = if args.quick {
        (0.0, 1)
    } else {
        (args.seconds, MIN_REPS)
    };
    let reps = repeat(
        &mut prepared,
        seconds,
        min_reps,
        "timed",
        verified.expected_digest,
        &mut tally,
    );
    drop(prepared);
    let values = [
        medians(&reps, Rep::tte_s),
        median(&setups),
        medians(&reps, Rep::norm_cpu_s),
    ];
    log(&format!(
        "{}: {} repetitions, tte {:.3} s (raw wall {:.3} s, slowdown {:.2})",
        kind.name(),
        reps.len(),
        values[0],
        medians(&reps, |r| r.wall_s),
        medians(&reps, |r| r.slowdown)
    ));
    Outcome {
        attempted: tally.attempted,
        failures: tally.failures,
        metrics: END_TO_END.iter().map(|m| m.name).zip(values).collect(),
    }
}

/// Per-key median of the layer counters of several repetitions.
fn median_layers(reps: &[Rep]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for rep in reps {
        for &(name, value) in &rep.layers {
            match out.iter_mut().find(|(n, _)| *n == name) {
                Some((_, values)) => values.push(value),
                None => out.push((name, vec![value])),
            }
        }
    }
    out.into_iter()
        .map(|(name, values)| (name, median(&values)))
        .collect()
}

/// Pooled per-job numbers of `service_mix` repetitions. The tail
/// percentile is reported only with ten jobs beyond it.
fn job_layers(jobs: &[&JobRecord]) -> Vec<(&'static str, f64)> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let ttes: Vec<f64> = jobs.iter().map(|j| j.tte_s).collect();
    let waits: Vec<f64> = jobs.iter().map(|j| j.queue_wait_s).collect();
    let ratios: Vec<f64> = jobs
        .iter()
        .filter(|j| j.predicted_s > 0.0)
        .map(|j| j.tte_s / j.predicted_s)
        .collect();
    let mut out = vec![
        ("service.job_tte_p50_s", median(&ttes)),
        ("service.queue_wait_p50_s", median(&waits)),
    ];
    if highest_supported_percentile(ttes.len(), &[0.90]).is_some() {
        out.push(("service.job_tte_p90_s", percentile(&ttes, 0.90)));
    }
    if !ratios.is_empty() {
        out.push(("service.des_ratio_p50", median(&ratios)));
    }
    out
}

fn traced_pass(args: &RunArgs) -> Outcome {
    let kind = args.kind;
    let workers = host::workers();
    let mut tally = Tally::default();
    let mut found: Vec<(&'static str, f64)> = Vec::new();
    let n_reps = if args.quick { 1 } else { TRACED_REPS };

    // tracing off: the baseline of obs.overhead_x, and the reference runs
    let (mut plain, mut warm, _) = timed_set_up(args, false, 0);
    tally.absorb("warm-up", &mut warm);
    let verified = plain.verify(&warm);
    tally.extend("cross-check", verified.failures);
    let untraced = repeat(
        &mut plain,
        0.0,
        if kind == Kind::ServiceMix && !args.quick {
            TRACED_PASS_MIXES
        } else {
            n_reps
        },
        "untraced",
        verified.expected_digest,
        &mut tally,
    );
    let untraced_tte = medians(&untraced, Rep::tte_s);
    found.extend([
        ("raw.tte_s", medians(&untraced, |r| r.wall_s)),
        ("raw.cpu_s", medians(&untraced, |r| r.cpu_s)),
        ("host.slowdown_x", medians(&untraced, |r| r.slowdown)),
        ("host.peak_rss_mb", medians(&untraced, |r| r.peak_rss_mb)),
    ]);
    if let Some(inproc_tte) = verified.inproc_tte_s {
        found.push(("net.overhead_x", untraced_tte / inproc_tte));
    }
    if matches!(kind, Kind::PoissonRuntime | Kind::RanksRuntime) && workers >= 2 {
        // the same seeds as the repetitions it is compared with
        let one: Vec<Rep> = (0..untraced.len() as u64)
            .map(|ordinal| {
                let mut rep = plain.runtime_rep(Scale::Full, 1, ordinal);
                tally.absorb("one-worker reference", &mut rep);
                rep
            })
            .collect();
        found.push((
            "runtime.strong_eff_w2",
            medians(&one, Rep::tte_s) / (workers as f64 * untraced_tte),
        ));
    }
    if kind == Kind::PoissonRuntime {
        let mut sequential = plain.sequential_rep(Scale::Full, 0);
        tally.absorb("sequential reference", &mut sequential);
        found.push(("core.seq_ref_s", sequential.tte_s()));
    }
    drop(plain);

    // tracing on: the program's tracer plus the benchmark's evaluation timer
    let (mut prepared, mut warm, _) = timed_set_up(args, true, 1);
    tally.absorb("traced warm-up", &mut warm);
    prepared.probe().expect("traced set-up has a probe").reset();
    let traced = repeat(
        &mut prepared,
        0.0,
        n_reps,
        "traced",
        verified.expected_digest,
        &mut tally,
    );
    let n = traced.len() as f64;
    // fractions of one run compare times taken under the same conditions,
    // so they use raw seconds
    let wall = medians(&traced, |r| r.wall_s);
    let cpu = medians(&traced, |r| r.cpu_s);
    let probe = prepared.probe().expect("traced set-up has a probe");
    // the probe accumulated over all traced repetitions: per-repetition means
    let busy = probe.total_busy_s() / n;
    const BUSY: [&str; 3] = ["eval.busy_s_l0", "eval.busy_s_l1", "eval.busy_s_l2"];
    const COUNT: [&str; 3] = ["eval.count_l0", "eval.count_l1", "eval.count_l2"];
    for level in 0..3 {
        found.push((BUSY[level], probe.busy_s(level) / n));
        found.push((COUNT[level], probe.count(level) as f64 / n));
    }
    let threads = if kind == Kind::TsunamiSeq { 1 } else { workers };
    found.push(("overhead.cpu_frac", 1.0 - busy / cpu));
    found.push(("overhead.idle_frac", 1.0 - cpu / (threads as f64 * wall)));
    found.push((
        "obs.overhead_x",
        medians(&traced, Rep::tte_s) / untraced_tte,
    ));
    if kind == Kind::TsunamiSeq {
        found.push(("core.chain_overhead_frac", 1.0 - busy / wall));
    }
    found.extend(median_layers(&traced));
    // job latencies are what tenants see: taken with tracing off
    let jobs: Vec<&JobRecord> = untraced.iter().flat_map(|r| r.jobs.iter()).collect();
    found.extend(job_layers(&jobs));
    found.push(("bench.reps_untraced", untraced.len() as f64));
    found.push(("bench.reps_traced", traced.len() as f64));

    let scratch = host::scratch_dir("ladder");
    std::fs::create_dir_all(&scratch).expect("create scratch directory");
    if let Some(snapshot) = prepared.last_snapshot.take() {
        found.extend(ladder::snapshot_rungs(&snapshot, args.quick, &scratch));
    }
    drop(prepared);
    found.extend(ladder::run(args.quick, &scratch));
    host::remove_scratch(&scratch);

    // every catalogue entry is reported; a layer that is not on this
    // workload's path reads 0
    for (name, _) in &found {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "layer metric {name} is not in the catalogue"
        );
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = found
                .iter()
                .find(|(name, _)| *name == m.name)
                .map_or(0.0, |&(_, v)| v);
            (m.name, value)
        })
        .collect();
    Outcome {
        attempted: tally.attempted,
        failures: tally.failures,
        metrics,
    }
}

/// Does injected work show in the normalised timings at its size? Runs
/// [`SENSITIVITY_ROUNDS`] rounds of one warm-up-size repetition each
/// without injection, with +10 % of every evaluation spun in registers,
/// and with a 4 MiB sweep that evicts the program's cache, all three at
/// the round's seed, and compares each injected repetition with its
/// round's plain one (medians over the rounds of the per-round ratios).
/// The spun work must show in `tte_s` at its known size, and the
/// reference slowdown must read the same while the program evicts its
/// cache as while it does not: a reference that the program's own cache
/// behaviour could slow would hide part of such a change.
pub fn sensitivity(kind: Kind, seed: u64) -> bool {
    let args = RunArgs {
        kind,
        seed,
        seconds: 0.0,
        traced: false,
        quick: false,
    };
    let (mut prepared, _, _) = timed_set_up(&args, false, 0);
    let mut failures = 0;
    let mut rounds: Vec<[Rep; 3]> = Vec::with_capacity(SENSITIVITY_ROUNDS);
    // seconds of spun work as a share of one thread of the plain repetition
    let mut spun: Vec<f64> = Vec::with_capacity(SENSITIVITY_ROUNDS);
    let threads = if kind == Kind::TsunamiSeq {
        1
    } else {
        host::workers()
    } as f64;
    for round in 0..SENSITIVITY_ROUNDS {
        let mut injected_s = [0.0; 3];
        let reps = [Inject::Off, Inject::Spin, Inject::Thrash].map(|mode| {
            let before = workloads::injected_s();
            workloads::set_injection(mode);
            let rep = prepared.repetition(Scale::Warm, round as u64);
            workloads::set_injection(Inject::Off);
            failures += rep.failures.len();
            injected_s[mode as usize] = workloads::injected_s() - before;
            rep
        });
        spun.push(injected_s[Inject::Spin as usize] / (threads * reps[0].wall_s));
        rounds.push(reps);
    }
    drop(prepared);
    // median over the rounds of injected / plain
    let ratio = |mode: Inject, f: &dyn Fn(&Rep) -> f64| {
        let per_round: Vec<f64> = rounds
            .iter()
            .map(|reps| f(&reps[mode as usize]) / f(&reps[0]))
            .collect();
        median(&per_round)
    };
    let spun = median(&spun);
    let spin_tte = ratio(Inject::Spin, &Rep::tte_s) - 1.0;
    let reference = ratio(Inject::Thrash, &|r| r.slowdown);
    // a share too small to tell from repetition noise is only reported
    let spin_ok = spun < 0.03 || (spin_tte / spun - 1.0).abs() <= 0.5;
    let thrash_ok = (reference - 1.0).abs() <= 0.05;
    let verdict = |ok: bool| if ok { "ok" } else { "FAILED" };
    println!(
        "{:<16} spin: {:+.1}% of a thread injected, tte_s {:+.1}% (raw {:+.1}%)  {}",
        kind.name(),
        spun * 100.0,
        spin_tte * 100.0,
        (ratio(Inject::Spin, &|r| r.wall_s) - 1.0) * 100.0,
        verdict(spin_ok)
    );
    println!(
        "{:<16} thrash: tte_s {:+.1}% (raw {:+.1}%), reference slowdown x{:.3}  {}",
        kind.name(),
        (ratio(Inject::Thrash, &Rep::tte_s) - 1.0) * 100.0,
        (ratio(Inject::Thrash, &|r| r.wall_s) - 1.0) * 100.0,
        reference,
        verdict(thrash_ok)
    );
    spin_ok && thrash_ok && failures == 0
}
