//! Conformance suite for the **observability layer** (PR 8,
//! `uq_parallel::obs`): tracing is pure observation. Attaching an
//! enabled [`Tracer`] must not move a single bit of any run's output —
//! no RNG draws, no message reordering, no extra wakeups — and the
//! counters it gathers must agree with the authoritative sources they
//! mirror (the rewind ledger, the phonebook, the worker pool).
//!
//! Here: the sequential driver traced and untraced, bit for bit; the
//! counter identities on a run stopped at its first barrier; the
//! exporters' formats. The traced pool runs — on the host's pool and on
//! one worker, with and without mid-run checkpoint barriers — are rows of
//! the conformance matrix. Fixture: the tight-ridge two-level Gaussian
//! hierarchy shared with `ledger_exactness.rs`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::AtomicBool;
use uq_mlmcmc::estimator::run_sequential;
use uq_mlmcmc::store::fnv1a;
use uq_mlmcmc::{MlmcmcConfig, RunStore};
use uq_parallel::{
    chrome_trace, Counter, MetricsSnapshot, ParallelCheckpoint, Placement, Run, Runtime, SpanKind,
    Tracer,
};

#[path = "common/ridge.rs"]
mod ridge;
use ridge::{deterministic, Ridge};

#[test]
fn sequential_tracing_on_off_is_bit_identical() {
    let config = MlmcmcConfig::new(vec![400, 250])
        .with_burn_in(vec![30, 20])
        .recording();
    let mut rng = StdRng::seed_from_u64(7);
    let plain = run_sequential(&Ridge, &config, &mut rng);

    let tracer = Tracer::new();
    let observed = tracer.observed(&Ridge, 0);
    let mut rng = StdRng::seed_from_u64(7);
    let traced = run_sequential(&observed, &config, &mut rng);

    for level in 0..2 {
        assert_eq!(
            plain.levels[level].theta_samples, traced.levels[level].theta_samples,
            "level-{level} stream must be bit-identical under the observed factory"
        );
        assert_eq!(
            plain.levels[level].mean_correction,
            traced.levels[level].mean_correction
        );
    }
    // non-vacuity: the wrapper actually recorded the evaluations it saw
    let evals = tracer
        .events()
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::Eval { .. }))
        .count();
    assert!(evals > 400, "observed factory recorded only {evals} spans");
    assert!(tracer.hist(uq_parallel::Hist::SolveTime).count > 0);
}

#[test]
fn counters_agree_with_their_authoritative_sources() {
    // a single-worker run stopped at its first checkpoint barrier ends
    // quiescent: every chain paused at a clean boundary, every serve
    // written back, nothing in flight, so the cross-rank counters must
    // balance exactly. (A run that ends at `Shutdown` need not: level 0
    // serves until then, and a write-back sent after the phonebook
    // exited is dropped.)
    let dir = std::env::temp_dir().join(format!("uq-obs-counters-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = RunStore::open(&dir).expect("open store");
    let stop = AtomicBool::new(true);
    let ckpt = ParallelCheckpoint {
        store: &store,
        config_hash: fnv1a(b"obs-conformance-counters"),
        every: 100,
        on_snapshot: None,
        stop: Some(&stop),
    };
    let config = deterministic(300, 500, 21);
    let tracer = Tracer::new();
    let rt = Run::new(&Ridge, &config, &tracer, Some(&ckpt), None)
        .on(Placement::Pool(&Runtime::new(config.n_workers)))
        .expect("a live run");
    assert!(rt.preempted, "the run must stop at its first barrier");
    let ledger = rt.phonebook.ledger;

    // every executed serve's ServeDone reached the phonebook, and every
    // write-back committed one serve in the ledger: the controller-side
    // count, the phonebook-side count and the ledger describe the same
    // history
    let serves = tracer.counter(Counter::Serves);
    let write_backs = tracer.counter(Counter::WriteBacks);
    assert_eq!(
        serves, write_backs,
        "controller-side serves vs phonebook-side write-backs"
    );
    assert_eq!(
        write_backs as usize, ledger.serves,
        "tracer write-backs inconsistent with the ledger: {ledger:?}"
    );
    assert!(ledger.serves > 0);

    // the merged snapshot carries both sources without overwriting the
    // live cross-check values
    let mut snap = MetricsSnapshot::capture("conformance", &tracer);
    snap.merge_runtime(&rt.runtime);
    assert_eq!(snap.counter(Counter::Serves), serves);
    assert_eq!(snap.counter(Counter::Steals), rt.runtime.steals as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exporters_are_well_formed() {
    let tracer = Tracer::new();
    let config = deterministic(120, 200, 5);
    let run = Run::new(&Ridge, &config, &tracer, None, None);
    run.on(Placement::Pool(&Runtime::new(1)))
        .expect("a live run");

    // CSV: header plus one row per event, every row level-annotated
    let csv = tracer.to_csv();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("rank,kind,level,start,end"));
    let rows = lines.count();
    assert_eq!(rows, tracer.n_events());
    assert!(rows > 0);

    // Chrome trace: one process per label, complete events with
    // consistent timestamps (ts >= 0, dur >= 0), valid JSON bracketing
    let trace = chrome_trace(&[("a", &tracer), ("b", &Tracer::disabled())]);
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
    assert!(trace.contains("\"ph\":\"M\""));
    assert!(trace.contains("\"ph\":\"X\""));
    assert!(!trace.contains("\"dur\":-"), "negative span duration");
    assert!(!trace.contains("\"ts\":-"), "negative span timestamp");

    // metrics snapshot: counters, per-rank and per-level tables present
    let snap = MetricsSnapshot::capture("export", &tracer);
    assert!(!snap.per_rank.is_empty() && !snap.per_level.is_empty());
    let json = snap.to_json();
    for key in [
        "\"counters\"",
        "\"histograms\"",
        "\"per_rank\"",
        "\"per_level\"",
        "\"utilization\"",
    ] {
        assert!(json.contains(key), "metrics JSON missing {key}");
    }

    // progress line: human-readable liveness summary
    let line = tracer.progress_line();
    assert!(line.contains("serves=") && line.contains("spans="));
}
