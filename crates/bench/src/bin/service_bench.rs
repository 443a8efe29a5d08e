//! PR 10 perf artifact: the **always-on multi-tenant UQ service** under
//! a synthetic tenant mix.
//!
//! Default mode drives one in-process service end to end:
//!
//! 1. a calibration job teaches the admission model the measured
//!    per-level evaluation times (replacing the 50 µs bootstrap);
//! 2. a four-tenant mix (priorities 1/1/2/4, mixed job sizes) is
//!    submitted; one job is preempted at a quiesce barrier and resumed,
//!    one is cancelled mid-flight;
//! 3. every completed job's time-to-estimate is measured and
//!    cross-checked against the admission prediction it was admitted
//!    under — the job's own configuration simulated on a stand-in target
//!    (the ratio must stay inside a wide sanity band — it is an
//!    admission model, not a profiler);
//! 4. sustained jobs/sec, p50/p99 time-to-estimate, the per-tenant serve
//!    table and the band check land in `results/BENCH_PR10.json`, and
//!    `--metrics-out F` writes a `uq-obs-metrics-v3` snapshot whose
//!    `per_tenant` table comes from the service books.
//!
//! `--serve ADDR --expect N` / `--client ADDR --tenant K` split the same
//! fixture across real OS processes for the CI two-tenant remote smoke:
//! each client submits over TCP, waits its job out, recomputes the
//! standalone digest at its tenant seed locally and asserts bit
//! equality — cross-process, cross-tenant isolation on the wire.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use uq_bench::{render_table, write_bench, BenchJson};
use uq_linalg::prob::isotropic_gaussian_logpdf;
use uq_mcmc::proposal::GaussianRandomWalk;
use uq_mcmc::{Proposal, SamplingProblem};
use uq_mlmcmc::ledger::tenant_seed;
use uq_mlmcmc::LevelFactory;
use uq_parallel::{
    levels_digest, run_parallel, Counter, JobId, JobSpec, JobState, MetricsSnapshot,
    ParallelConfig, RuntimeConfig, Service, ServiceClient, ServiceConfig, Tracer,
};

const COARSE_MEAN: f64 = 0.0;
const COARSE_SD: f64 = 0.15;
const FINE_MEAN: f64 = 0.35;
const FINE_SD: f64 = 0.12;
const RHO: usize = 2;

struct Ridge;

struct Target {
    mean: f64,
    sd: f64,
}

impl SamplingProblem for Target {
    fn dim(&self) -> usize {
        1
    }
    fn log_density(&mut self, theta: &[f64]) -> f64 {
        isotropic_gaussian_logpdf(theta, &[self.mean], self.sd)
    }
}

impl LevelFactory for Ridge {
    fn n_levels(&self) -> usize {
        2
    }
    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(Target {
            mean: [COARSE_MEAN, FINE_MEAN][level],
            sd: [COARSE_SD, FINE_SD][level],
        })
    }
    fn proposal(&self, _level: usize) -> Box<dyn Proposal> {
        Box::new(GaussianRandomWalk::new(0.2))
    }
    fn subsampling_rate(&self, _level: usize) -> usize {
        RHO
    }
    fn starting_point(&self, _level: usize) -> Vec<f64> {
        vec![0.0]
    }
}

/// The deterministic bit-parity regime on the ridge.
fn base_config(n0: usize, n1: usize, seed: u64) -> ParallelConfig {
    let mut config = ParallelConfig::new(vec![n0, n1], vec![1, 1]);
    config.burn_in = vec![30, 20];
    config.seed = seed;
    config.load_balancing = false;
    config.record_samples = true;
    config.speculation = true;
    config
}

fn job(tenant: u64, priority: f64, base: ParallelConfig) -> JobSpec {
    JobSpec {
        tenant,
        priority,
        model: "ridge".to_string(),
        config: RuntimeConfig {
            base,
            n_workers: 1,
            collector_shards: 1,
        },
        deadline: 0.0,
    }
}

struct Args {
    out_dir: PathBuf,
    seed: u64,
    metrics_out: Option<String>,
    serve: Option<String>,
    expect: usize,
    client: Option<String>,
    tenant: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        out_dir: PathBuf::from("results"),
        seed: 20210730,
        metrics_out: None,
        serve: None,
        expect: 2,
        client: None,
        tenant: 1,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--out" => args.out_dir = PathBuf::from(iter.next().expect("--out needs a value")),
            "--seed" => {
                args.seed = iter
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("--seed must be an integer");
            }
            "--metrics-out" => {
                args.metrics_out = Some(iter.next().expect("--metrics-out needs a value"));
            }
            "--serve" => args.serve = Some(iter.next().expect("--serve needs an address")),
            "--expect" => {
                args.expect = iter
                    .next()
                    .expect("--expect needs a value")
                    .parse()
                    .expect("--expect must be an integer");
            }
            "--client" => args.client = Some(iter.next().expect("--client needs an address")),
            "--tenant" => {
                args.tenant = iter
                    .next()
                    .expect("--tenant needs a value")
                    .parse()
                    .expect("--tenant must be an integer");
            }
            other => panic!(
                "unknown argument: {other} (expected --out/--seed/--metrics-out/\
                 --serve/--expect/--client/--tenant)"
            ),
        }
    }
    args
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

// ---------------------------------------------------------------------
// remote-smoke roles
// ---------------------------------------------------------------------

/// `--serve ADDR --expect N`: host the service for N remote submits,
/// drain them, print the per-tenant books and exit.
fn serve(args: &Args) {
    let dir = std::env::temp_dir().join(format!("uq-svc-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tracer = Tracer::new();
    let mut cfg = ServiceConfig::new(&dir);
    cfg.lanes = 2;
    cfg.pool_workers = 2;
    cfg.quantum = 10;
    let mut service = Service::start(cfg, &tracer);
    service.register_model("ridge", Arc::new(Ridge));
    let addr = service
        .listen(args.serve.as_deref().expect("serve mode"))
        .expect("cannot bind service address");
    println!(
        "service listening on {addr}, waiting for {} jobs",
        args.expect
    );

    // wait for each client's orderly goodbye (sent only after it has
    // verified its job), so no client gets the connection torn out from
    // under a status poll
    let deadline = Instant::now() + Duration::from_secs(300);
    while (service.remote_byes() as usize) < args.expect {
        assert!(
            Instant::now() < deadline,
            "expected {} client goodbyes, saw {} ({} jobs admitted)",
            args.expect,
            service.remote_byes(),
            tracer.counter(Counter::JobsAdmitted)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    service.quiesce();
    for (tenant, serves) in service.per_tenant_serves() {
        println!("tenant {tenant}: {serves} serves");
    }
    println!(
        "service drained {} jobs ✓",
        tracer.counter(Counter::JobsAdmitted)
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--client ADDR --tenant K`: submit over TCP, wait, and assert the
/// remote digest equals the standalone digest at this tenant's seed.
fn client(args: &Args) {
    let addr = args.client.as_deref().expect("client mode");
    let base = base_config(400, 150, args.seed);
    let mut client = ServiceClient::connect(addr).expect("cannot reach the service");

    let (id, predicted) = client
        .submit(job(args.tenant, 1.0, base.clone()))
        .expect("submit io")
        .expect("admission");
    println!(
        "tenant {}: job {id} admitted, predicted tte {predicted:.4}s",
        args.tenant
    );
    let done = client.wait(id).expect("wait io");
    assert_eq!(done.state, JobState::Completed, "remote job must complete");

    let mut standalone = base;
    standalone.seed = tenant_seed(standalone.seed, args.tenant);
    let expected = levels_digest(&run_parallel(&Ridge, &standalone, &Tracer::disabled()).levels);
    assert_eq!(
        done.digest, expected,
        "tenant {}: remote digest {:#x} != standalone {:#x}",
        args.tenant, done.digest, expected
    );
    assert_eq!(done.seed, tenant_seed(args.seed, args.tenant));
    client.bye().expect("goodbye");
    println!(
        "tenant {}: remote digest matches standalone bit-for-bit ✓",
        args.tenant
    );
}

// ---------------------------------------------------------------------
// the bench proper
// ---------------------------------------------------------------------

struct Submitted {
    id: JobId,
    predicted: f64,
    submitted_at: Instant,
    tte: Option<f64>,
}

fn main() {
    let args = parse_args();
    if args.serve.is_some() {
        serve(&args);
        return;
    }
    if args.client.is_some() {
        client(&args);
        return;
    }

    let store_dir = std::env::temp_dir().join(format!("uq-svc-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let tracer = Tracer::new();
    let mut cfg = ServiceConfig::new(&store_dir);
    cfg.lanes = 3;
    cfg.pool_workers = 3;
    cfg.quantum = 10;
    cfg.max_jobs_per_tenant = 8;
    let service = Service::start(cfg, &tracer);
    service.register_model("ridge", Arc::new(Ridge));

    // 1. calibration: one solo job replaces the admission model's bootstrap
    // with measured rates before any prediction we score
    let (cal, _) = service
        .submit(job(0, 1.0, base_config(800, 250, args.seed)))
        .expect("calibration admission");
    let cal_done = service.wait(cal);
    assert_eq!(cal_done.state, JobState::Completed);
    println!("calibration job done ({} serves measured)", cal_done.serves);

    // 2. the synthetic tenant mix: priorities 1/1/2/4, three job shapes
    let mix: Vec<(u64, f64, ParallelConfig)> = (0..12)
        .map(|i| {
            let tenant = 1 + (i % 4) as u64;
            let priority = [1.0, 1.0, 2.0, 4.0][(tenant - 1) as usize];
            let (n0, n1) = [(2_000, 700), (3_000, 1_000), (1_200, 400)][i % 3];
            (tenant, priority, base_config(n0, n1, args.seed + i as u64))
        })
        .collect();

    let bench_start = Instant::now();
    let mut jobs: Vec<Submitted> = Vec::new();
    for (tenant, priority, base) in mix {
        let (id, predicted) = service
            .submit(job(tenant, priority, base))
            .expect("mix admission");
        jobs.push(Submitted {
            id,
            predicted,
            submitted_at: Instant::now(),
            tte: None,
        });
    }
    // chaos riders: cancel the last job, preempt/resume the last large
    // one — still queued or running now, where the first jobs finish
    // while the later ones are admitted (a submit simulates the job:
    // 2–5 ms each here, more beside three running jobs)
    let cancel_id = jobs[11].id;
    let preempt_id = jobs[10].id;
    assert!(
        service.cancel(cancel_id),
        "mid-flight cancel must be accepted"
    );

    let mut preempted = false;
    let mut resumed = false;
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let mut all_terminal = true;
        for j in jobs.iter_mut() {
            let status = service.status(j.id).expect("submitted job");
            match status.state {
                JobState::Completed | JobState::Cancelled => {
                    if j.tte.is_none() {
                        j.tte = Some(j.submitted_at.elapsed().as_secs_f64());
                    }
                }
                JobState::Preempted => {
                    if j.id == preempt_id && !resumed {
                        resumed = service.resume(j.id);
                        assert!(resumed, "parked job must resume");
                    }
                    all_terminal = false;
                }
                JobState::Running => {
                    if j.id == preempt_id && !preempted && status.snapshots >= 1 {
                        preempted = service.preempt(j.id);
                    }
                    all_terminal = false;
                }
                JobState::Queued => all_terminal = false,
            }
        }
        if all_terminal {
            break;
        }
        assert!(Instant::now() < deadline, "tenant mix never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    let wall = bench_start.elapsed().as_secs_f64();
    assert!(preempted && resumed, "the preempt/resume rider must fire");

    // 3. score the outcome
    let cancelled = service.status(cancel_id).expect("cancelled job");
    assert_eq!(cancelled.state, JobState::Cancelled, "cancel must stick");
    let completed: Vec<&Submitted> = jobs.iter().filter(|j| j.id != cancel_id).collect();
    for j in &completed {
        let state = service.status(j.id).expect("job").state;
        assert_eq!(state, JobState::Completed, "job {} ended {state:?}", j.id);
    }
    let jobs_per_sec = completed.len() as f64 / wall;

    let mut ttes: Vec<f64> = completed.iter().map(|j| j.tte.expect("scored")).collect();
    ttes.sort_by(|a, b| a.partial_cmp(b).expect("finite tte"));
    let p50 = percentile(&ttes, 0.50);
    let p99 = percentile(&ttes, 0.99);

    // DES cross-check: measured tte vs the admission prediction, for
    // jobs that ran undisturbed (the preempted job's tte includes its
    // parked time, which no admission model can see)
    let mut band_lo = f64::INFINITY;
    let mut band_hi = 0.0f64;
    for j in &completed {
        if j.id == preempt_id {
            continue;
        }
        let ratio = j.tte.expect("scored") / j.predicted;
        band_lo = band_lo.min(ratio);
        band_hi = band_hi.max(ratio);
    }
    assert!(
        band_lo > 0.005 && band_hi < 200.0,
        "DES admission predictions drifted out of the sanity band: \
         measured/predicted in [{band_lo:.4}, {band_hi:.4}]"
    );

    let books = service.per_tenant_serves();
    let rows: Vec<Vec<String>> = books
        .iter()
        .map(|&(t, s)| vec![t.to_string(), s.to_string()])
        .collect();
    println!("{}", render_table(&["tenant", "serves"], &rows));
    println!(
        "{} jobs in {wall:.2}s → {jobs_per_sec:.2} jobs/s, tte p50 {p50:.3}s p99 {p99:.3}s, \
         DES band [{band_lo:.3}, {band_hi:.3}] ✓",
        completed.len()
    );

    // 4. artifacts
    let mut json = BenchJson::new();
    json.field_str("experiment", "pr10_service_bench")
        .field("seed", args.seed)
        .field("tenants", 4)
        .field("jobs_submitted", jobs.len())
        .field("jobs_completed", completed.len())
        .field("jobs_cancelled", 1)
        .field("jobs_preempted", tracer.counter(Counter::JobsPreempted))
        .field("jobs_admitted", tracer.counter(Counter::JobsAdmitted))
        .field("jobs_rejected", tracer.counter(Counter::JobsRejected))
        .field("wall_seconds", format!("{wall:.6}"))
        .field("jobs_per_sec", format!("{jobs_per_sec:.6}"))
        .field("tte_p50_seconds", format!("{p50:.6}"))
        .field("tte_p99_seconds", format!("{p99:.6}"))
        .field("des_band_lo", format!("{band_lo:.6}"))
        .field("des_band_hi", format!("{band_hi:.6}"))
        .array(
            "per_tenant_serves",
            &books
                .iter()
                .map(|&(t, s)| format!("{{ \"tenant\": {t}, \"serves\": {s} }}"))
                .collect::<Vec<_>>(),
        );
    write_bench(&args.out_dir, "BENCH_PR10.json", &json.finish());

    if let Some(name) = &args.metrics_out {
        let mut snap = MetricsSnapshot::capture("pr10 service mix", &tracer);
        snap.merge_service(&books);
        let mut doc = String::from("{\n\"schema\": \"uq-obs-metrics-v3\",\n\"service\": ");
        doc.push_str(snap.to_json().trim_end());
        doc.push_str("\n}\n");
        write_bench(&args.out_dir, name, &doc);
    }

    service.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}
