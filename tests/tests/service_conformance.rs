//! Tenant-isolation conformance suite for the **multi-tenant UQ
//! service** (`uq_parallel::service`): a job routed through a loaded
//! service must be bit-for-bit identical to the same job run standalone
//! on every backend — the service is a dispatcher, never a statistical
//! actor.
//!
//! The pinned regime is the deterministic one shared with
//! `net_conformance.rs`: one chain per level, load balancing off,
//! per-sample recording on, speculation on, one worker per job. In that
//! regime digests over (means, variances, thetas, correction pairs) are
//! pure functions of the seed, so:
//!
//! * a serviced job (seed re-derived through [`tenant_seed`]) must match
//!   a standalone run at that tenant seed on the thread scheduler, the
//!   cooperative runtime and the loopback net transport — *while a
//!   competing tenant is actively running on the same pool*;
//! * a preempt/resume cycle through the quiesce-barrier snapshot must
//!   land on the very same digest (preemption exactness);
//! * the same holds for a remote client driving the service over TCP,
//!   which also exercises cancel, budget denial and admission denial on
//!   the wire, and for two tenants that are separate OS processes (the
//!   test binary re-executing itself), each recomputing its own
//!   standalone digest.
//!
//! Fixture: the tight-ridge two-level Gaussian hierarchy (fine
//! `N(0.35, 0.12²)`, coarse `N(0, 0.15²)`, `ρ = 2`).

use std::env;
use std::sync::Arc;
use std::time::{Duration, Instant};

use uq_mlmcmc::ledger::tenant_seed;
use uq_parallel::{
    levels_digest, run_net_worker, run_parallel, run_runtime, JobSpec, JobState, MetricsSnapshot,
    NetDriver, NetDriverOptions, NetWorkerOptions, ParallelConfig, RuntimeConfig, Service,
    ServiceClient, ServiceConfig, Tracer,
};

#[path = "common/reexec.rs"]
mod reexec;
#[path = "common/ridge.rs"]
mod ridge;
use reexec::{expect_success, spawn_self};
use ridge::{Ridge, FINE_MEAN};

/// The deterministic bit-parity regime on the ridge.
fn config(n0: usize, n1: usize, seed: u64) -> ParallelConfig {
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

/// Standalone reference digest at the job's *effective* (tenant) seed —
/// what the service must reproduce bit-for-bit.
fn standalone_digest(base: &ParallelConfig, tenant: u64) -> u64 {
    let mut at_tenant_seed = base.clone();
    at_tenant_seed.seed = tenant_seed(base.seed, tenant);
    levels_digest(&run_parallel(&Ridge, &at_tenant_seed, &Tracer::disabled()).levels)
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("uq-svc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn serviced_job_matches_standalone_on_every_backend_under_contention() {
    let base_a = config(300, 100, 10_2026);
    let base_b = config(500, 150, 10_2026); // same base seed, different tenant
    let seed_a = tenant_seed(base_a.seed, 1);
    let seed_b = tenant_seed(base_b.seed, 2);
    assert_ne!(seed_a, seed_b, "tenants must get disjoint namespaces");

    // reference digests at the tenant seeds, across all three backends
    let thread_a = standalone_digest(&base_a, 1);
    let thread_b = standalone_digest(&base_b, 2);
    assert_ne!(thread_a, thread_b, "distinct tenants, distinct streams");

    let mut rt_cfg = base_a.clone();
    rt_cfg.seed = seed_a;
    let runtime_a = {
        let cfg = RuntimeConfig {
            base: rt_cfg.clone(),
            n_workers: 1,
            collector_shards: 1,
        };
        levels_digest(&run_runtime(&Ridge, &cfg, &Tracer::disabled()).report.levels)
    };
    assert_eq!(
        thread_a, runtime_a,
        "in-process backends must agree before the service means anything"
    );
    let net_a = {
        let driver = NetDriver::bind("127.0.0.1:0").expect("bind loopback");
        let addr = driver.local_addr().to_string();
        let worker = std::thread::spawn(move || {
            let opts = NetWorkerOptions {
                connect: addr,
                join: false,
                leave_at_barrier: None,
            };
            run_net_worker(Arc::new(Ridge), &opts, &Tracer::disabled())
        });
        let opts = NetDriverOptions {
            workers: 1,
            every: 0,
            store: None,
            config_hash: 0,
        };
        let report = driver.run(Arc::new(Ridge), &rt_cfg, &opts, &Tracer::disabled());
        worker.join().expect("net worker panicked");
        levels_digest(&report.report.levels)
    };
    assert_eq!(thread_a, net_a, "net transport diverged from the backends");

    // now the service, with both tenants active on the same pool
    let dir = fresh_dir("conform");
    let tracer = Tracer::new();
    let mut svc_cfg = ServiceConfig::new(&dir);
    svc_cfg.lanes = 2;
    svc_cfg.pool_workers = 2;
    let service = Service::start(svc_cfg, &tracer);
    service.register_model("ridge", Arc::new(Ridge));

    let (job_a, _) = service.submit(job(1, 1.0, base_a)).expect("admit tenant 1");
    let (job_b, _) = service.submit(job(2, 3.0, base_b)).expect("admit tenant 2");
    let done_a = service.wait(job_a);
    let done_b = service.wait(job_b);

    assert_eq!(done_a.state, JobState::Completed);
    assert_eq!(done_b.state, JobState::Completed);
    assert_eq!(
        done_a.seed, seed_a,
        "service must run in the tenant namespace"
    );
    assert_eq!(done_b.seed, seed_b);
    assert_eq!(
        done_a.digest, thread_a,
        "tenant 1 through the loaded service diverged from standalone"
    );
    assert_eq!(
        done_b.digest, thread_b,
        "tenant 2 through the loaded service diverged from standalone"
    );
    assert!(
        (done_a.estimate[0] - FINE_MEAN).abs() < 0.15,
        "estimate {} drifted from the fine mean",
        done_a.estimate[0]
    );

    // measured usage feeds the fair-share books per tenant
    let usage = service.per_tenant_serves();
    assert_eq!(usage.len(), 2);
    assert!(usage.iter().all(|&(_, serves)| serves > 0));
    // ... and lands in the v3 metrics document, one `per_tenant` row each
    let json = MetricsSnapshot::capture("service", &tracer)
        .merge_service(&usage)
        .to_json();
    for (tenant, serves) in &usage {
        let row = format!("{{ \"tenant\": {tenant}, \"serves\": {serves} }}");
        assert!(json.contains(&row), "no row {row} in:\n{json}");
    }
    assert_eq!(json.matches("\"tenant\":").count(), usage.len());
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());

    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn preempt_resume_cycle_is_bit_exact() {
    let base = config(2_000, 600, 11_2026);
    let reference = standalone_digest(&base, 7);

    let dir = fresh_dir("preempt");
    let tracer = Tracer::new();
    let mut svc_cfg = ServiceConfig::new(&dir);
    svc_cfg.lanes = 1;
    svc_cfg.pool_workers = 1;
    svc_cfg.quantum = 5; // frequent barriers so the preempt lands early
    let service = Service::start(svc_cfg, &tracer);
    service.register_model("ridge", Arc::new(Ridge));

    let (id, _) = service.submit(job(7, 1.0, base)).expect("admit");
    // preempt as soon as the job is running; the stop flag is consumed
    // at the next quiesce barrier
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = service.status(id).expect("job exists");
        match status.state {
            JobState::Running => {
                if service.preempt(id) {
                    break;
                }
            }
            JobState::Queued => {}
            other => panic!("job reached {other:?} before the preempt"),
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(1));
    }

    let parked = service.wait(id);
    assert_eq!(
        parked.state,
        JobState::Preempted,
        "a preempted job parks instead of completing"
    );
    assert!(
        parked.snapshots >= 1,
        "preemption must leave a resume point behind"
    );
    assert_eq!(parked.digest, 0, "no digest before completion");

    assert!(service.resume(id), "a parked job must be resumable");
    let done = service.wait(id);
    assert_eq!(done.state, JobState::Completed);
    assert_eq!(
        done.digest, reference,
        "preempt/resume through the snapshot changed the bits"
    );

    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn remote_client_lifecycle_cancel_and_denials() {
    let base = config(250, 80, 12_2026);
    let reference = standalone_digest(&base, 42);

    let dir = fresh_dir("remote");
    let tracer = Tracer::new();
    let mut svc_cfg = ServiceConfig::new(&dir);
    svc_cfg.max_jobs_per_tenant = 2;
    svc_cfg.lanes = 1;
    svc_cfg.pool_workers = 1;
    svc_cfg.quantum = 5;
    let mut service = Service::start(svc_cfg, &tracer);
    service.register_model("ridge", Arc::new(Ridge));
    let addr = service.listen("127.0.0.1:0").expect("listen").to_string();

    let mut client = ServiceClient::connect(&addr).expect("connect");

    // unknown model is denied over the wire
    let mut bogus = job(42, 1.0, base.clone());
    bogus.model = "no-such-model".to_string();
    let denied = client.submit(bogus).expect("io").expect_err("must deny");
    assert!(denied.contains("unknown model"), "got: {denied}");

    // an impossible deadline is denied by DES admission
    let mut rushed = job(42, 1.0, base.clone());
    rushed.deadline = 1e-12;
    let denied = client.submit(rushed).expect("io").expect_err("must deny");
    assert!(denied.contains("admission denied"), "got: {denied}");

    // a real submit completes with the standalone digest
    let (id, predicted) = client
        .submit(job(42, 1.0, base.clone()))
        .expect("io")
        .expect("admit");
    assert!(predicted > 0.0, "admission must predict a positive tte");
    let done = client.wait(id).expect("io");
    assert_eq!(done.state, JobState::Completed);
    assert_eq!(
        done.digest, reference,
        "remote job diverged from standalone"
    );

    // budget: tenant 42 has one terminal job; two more — long enough to
    // still be live when the next submit lands — fill the budget, the
    // third is turned away
    let long = config(60_000, 20_000, 12_2026);
    let (second, _) = client
        .submit(job(42, 1.0, long.clone()))
        .expect("io")
        .expect("admit");
    let (third, _) = client
        .submit(job(42, 1.0, long.clone()))
        .expect("io")
        .expect("admit");
    let denied = client
        .submit(job(42, 1.0, base.clone()))
        .expect("io")
        .expect_err("budget exhausted");
    assert!(denied.contains("budget"), "got: {denied}");

    // cancel always frees the budget — whichever state the jobs are in
    assert!(client.cancel(second).expect("io"));
    assert!(client.cancel(third).expect("io"));
    for id in [second, third] {
        let st = client.wait(id).expect("io");
        assert_eq!(st.state, JobState::Cancelled, "job {id}");
    }
    let (again, _) = client
        .submit(job(42, 1.0, base))
        .expect("io")
        .expect("budget freed by the cancels");
    // a short job may complete before the cancel lands: cancel succeeds
    // exactly when the job then ends cancelled
    let cancelled = client.cancel(again).expect("io");
    let end = client.wait(again).expect("io").state;
    assert!(
        matches!(end, JobState::Cancelled | JobState::Completed),
        "job {again} ended {end:?}"
    );
    assert_eq!(cancelled, end == JobState::Cancelled, "job {again}");

    // unknown ids answer cleanly
    assert!(client.status(9_999).expect("io").is_none());
    assert!(!client.cancel(9_999).expect("io"));
    assert!(!client.resume(9_999).expect("io"));

    client.bye().expect("orderly goodbye");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// tenants as separate OS processes (`common/reexec.rs`)
// ---------------------------------------------------------------------

const TENANT_ENV: &str = "UQ_SVC_TENANT";
const ADDR_ENV: &str = "UQ_SVC_ADDR";

#[test]
fn tenant_processes_get_their_standalone_digests_over_tcp() {
    let base = config(400, 150, 18_2026);
    if let Ok(tenant) = env::var(TENANT_ENV) {
        // a tenant's process: submit, wait the job out, recompute the
        // standalone run at the tenant seed here and compare to the bit
        let tenant: u64 = tenant.parse().expect("UQ_SVC_TENANT must be a tenant id");
        let addr = env::var(ADDR_ENV).expect("tenant process without UQ_SVC_ADDR");
        let mut client = ServiceClient::connect(&addr).expect("connect");
        let (id, _) = client
            .submit(job(tenant, 1.0, base.clone()))
            .expect("io")
            .expect("admit");
        let done = client.wait(id).expect("io");
        assert_eq!(done.state, JobState::Completed);
        assert_eq!(done.seed, tenant_seed(base.seed, tenant));
        assert_eq!(
            done.digest,
            standalone_digest(&base, tenant),
            "tenant {tenant}: remote digest diverged from the standalone run"
        );
        client.bye().expect("orderly goodbye");
        return;
    }

    let dir = fresh_dir("procs");
    let mut svc_cfg = ServiceConfig::new(&dir);
    svc_cfg.lanes = 2;
    svc_cfg.pool_workers = 2;
    let mut service = Service::start(svc_cfg, &Tracer::new());
    service.register_model("ridge", Arc::new(Ridge));
    let addr = service.listen("127.0.0.1:0").expect("listen").to_string();

    let tenants = ["1", "2"].map(|tenant| {
        spawn_self(
            "tenant_processes_get_their_standalone_digests_over_tcp",
            &[(TENANT_ENV, tenant), (ADDR_ENV, &addr)],
        )
    });
    for tenant in tenants {
        expect_success(tenant, "tenant process");
    }
    // a goodbye is counted before it is answered, and both tenants have
    // read their answers and exited
    assert_eq!(service.remote_byes(), 2);
    assert_eq!(service.per_tenant_serves().len(), 2, "one book per tenant");

    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
